(** GreC — greedy refined assignment of clients (paper §3.2, Fig. 3).

    Clients whose observed delay to their target server is within the
    bound connect directly. The remainder are processed in regret order
    over the desirability [mu = -C^R] (Eq. 8): each takes the most
    desirable contact server that can still absorb the forwarding
    bandwidth [R^C = 2 R^T] (choosing the target itself costs no extra
    bandwidth and is always feasible, so the phase always completes).

    How it is computed: [mu = -max(0, r - D)] is monotone
    non-increasing in the relayed delay [r = d(c, s) + d(s, target)],
    in float arithmetic too, so "desirability descending, then relayed
    delay ascending, then index" is exactly "relayed delay ascending,
    then index" (see {!Regret}). A late client's regret therefore needs
    only its two smallest relayed delays, and its preference walk is a
    lazy selection over one reused scratch row; nothing is sorted or
    allocated per server. Regret is taken over every server, dead ones
    included; the walk skips dead servers, never takes an infinite
    relayed delay (the client keeps its direct link), and the target
    itself adds no forwarding load. Client rows are read from the
    node x server tier; the dense client tier is never forced. *)

val assign :
  ?rule:Regret.rule ->
  ?alive:bool array ->
  Cap_model.World.t ->
  targets:int array ->
  int array
(** Contact server of each client, deterministically. Desirability
    ties are broken towards the lower relayed delay, then the lower
    server index. Server loads start from the zone loads implied by
    [targets].

    Failure awareness: a zone whose target is
    {!Cap_model.Assignment.unassigned} contributes no load and its
    clients get the [unassigned] contact (they are shed, not crashed).
    With an [alive] mask, dead servers are never chosen as contacts.
    Raises [Invalid_argument] on a mask-length mismatch. *)
