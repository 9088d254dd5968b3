(** Shared machinery for the paper's regret-based greedy heuristics
    (GreZ, Fig. 2 and GreC, Fig. 3).

    Each item (a zone, or a client) ranks all servers by a
    "desirability" [mu] (the negated assignment cost); items are then
    processed in an order derived from the gap between their best and
    second-best options, so that items with the most to lose are placed
    first — the approach of the generalized-assignment literature the
    paper cites.

    {b Keys instead of desirabilities.} Every caller's desirability is
    a monotone non-increasing function of a float key: GreZ's
    [mu = -C^I] of the integer cost, GreC's [mu = -max(0, r - D)] of
    the relayed delay [r]. Subtraction, [max] and negation are monotone
    in IEEE arithmetic too, so a lower key never has a lower [mu]:
    - GreC breaks [mu] ties by [r] itself, so "[mu] descending, then
      [r] ascending, then server index" is exactly "[r] ascending,
      then server index";
    - GreZ's [mu] is strictly decreasing in the cost, so [mu] ties are
      cost ties and "[mu] descending, then mean delay, then index" is
      "cost ascending, then mean delay, then index".
    The preference order is therefore a sort of flat key arrays, and
    the regret needs only the two smallest keys: an item's best and
    second options are its two lowest keys, duplicates counted.
    Nothing is built per server and no desirability is evaluated
    during a comparison. *)

type rule =
  | Best_minus_second
      (** standard GAP regret [mu_best - mu_second >= 0], largest
          first (the reading our DESIGN.md argues the authors
          intended) *)
  | Second_minus_best
      (** the formula exactly as printed in the paper's pseudo-code
          ([<= 0]); kept for the ablation experiment *)

(** A reusable, allocation-free preference walk over [n] servers.

    The caller fills {!keys} (and, where it needs a second criterion,
    {!ties}) for one item, calls {!start}, then draws servers with
    {!next} in (key ascending, tie ascending, index ascending) order
    until one is acceptable. The first few draws are linear
    selections; a walk that goes deeper sorts the rest in place. Keys
    and ties must never be NaN. *)
module Walk : sig
  type t

  val create : int -> t
  (** Scratch for [n] servers; [ties] start at 0. Raises
      [Invalid_argument] if [n < 1]. *)

  val keys : t -> float array
  (** The primary key row, owned by the walk and filled by the caller. *)

  val ties : t -> float array
  (** The tie-break row, owned by the walk and filled by the caller
      (left at 0 where the index alone breaks ties). *)

  val start : t -> unit
  (** Begin a walk over the current rows. The rows must not change
      until the walk ends. *)

  val next : t -> int
  (** The next server in preference order, or [-1] once all [n] have
      been drawn. *)

  val regret : rule -> t -> desirability:(float -> float) -> float
  (** The regret of the current key row, taken between the
      desirabilities of its two smallest keys; [desirability] must be
      non-increasing. 0 when [n = 1]. *)
end

val rank :
  Walk.t ->
  rule:rule ->
  ids:int array ->
  fill:(int -> unit) ->
  desirability:(float -> float) ->
  int array
(** [rank w ~rule ~ids ~fill ~desirability] fills [w]'s rows for each
    item with [fill id], takes its {!Walk.regret}, and returns the ids
    by descending regret, ties by ascending id (a NaN regret — both
    best options unreachable — ranks last, as under [compare]). *)
