type label = string * string

type hist = {
  bounds : float array;
  counts : int array;  (* length bounds + 1; last cell = overflow *)
  mutable h_sum : float;
  mutable h_count : int;
  mutable h_min : float;
  mutable h_max : float;
}

type instrument =
  | I_counter of float ref
  | I_gauge of float ref
  | I_histogram of hist

type entry = {
  name : string;
  help : string;
  labels : label list;
  instrument : instrument;
}

(* Registration order matters for readable exports, so keep both a
   lookup table and an ordered list. *)
let table : (string * label list, entry) Hashtbl.t = Hashtbl.create 64
let order : entry list ref = ref []

let register ~name ~labels ~help ~make ~same =
  match Hashtbl.find_opt table (name, labels) with
  | Some entry -> (
      match same entry.instrument with
      | Some handle -> handle
      | None ->
          invalid_arg
            (Printf.sprintf "Cap_obs.Metrics: %s re-registered with a different kind" name))
  | None ->
      let handle, instrument = make () in
      let entry = { name; help; labels; instrument } in
      Hashtbl.replace table (name, labels) entry;
      order := entry :: !order;
      handle

module Counter = struct
  type t = float ref

  let create ?(labels = []) ?(help = "") name =
    register ~name ~labels ~help
      ~make:(fun () ->
        let r = ref 0. in
        r, I_counter r)
      ~same:(function I_counter r -> Some r | _ -> None)

  let add t by =
    if by < 0. then invalid_arg "Cap_obs.Metrics.Counter.add: negative increment";
    if !Control.enabled then t := !t +. by

  let incr t = if !Control.enabled then t := !t +. 1.
  let value t = !t
end

module Gauge = struct
  type t = float ref

  let create ?(labels = []) ?(help = "") name =
    register ~name ~labels ~help
      ~make:(fun () ->
        let r = ref 0. in
        r, I_gauge r)
      ~same:(function I_gauge r -> Some r | _ -> None)

  let set t v = if !Control.enabled then t := v
  let add t by = if !Control.enabled then t := !t +. by
  let value t = !t
end

module Histogram = struct
  type t = hist

  let create ?(labels = []) ?(help = "") ?(base = 2.) ?(lowest = 1e-6) ?(buckets = 40) name =
    if base <= 1. then invalid_arg "Cap_obs.Metrics.Histogram: base must exceed 1";
    if lowest <= 0. then invalid_arg "Cap_obs.Metrics.Histogram: lowest must be positive";
    if buckets < 1 then invalid_arg "Cap_obs.Metrics.Histogram: need at least one bucket";
    register ~name ~labels ~help
      ~make:(fun () ->
        let h =
          {
            bounds = Array.init buckets (fun i -> lowest *. (base ** float_of_int i));
            counts = Array.make (buckets + 1) 0;
            h_sum = 0.;
            h_count = 0;
            h_min = infinity;
            h_max = neg_infinity;
          }
        in
        h, I_histogram h)
      ~same:(function I_histogram h -> Some h | _ -> None)

  (* Index of the first bound >= v, or the overflow cell. Binary
     search keeps observe robust near bucket edges (no float log). *)
  let bucket_index t v =
    let n = Array.length t.bounds in
    if v <= t.bounds.(0) then 0
    else if v > t.bounds.(n - 1) then n
    else begin
      let lo = ref 0 and hi = ref (n - 1) in
      (* invariant: bounds.(lo) < v <= bounds.(hi) *)
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) / 2 in
        if v <= t.bounds.(mid) then hi := mid else lo := mid
      done;
      !hi
    end

  let observe t v =
    if !Control.enabled then begin
      let i = bucket_index t v in
      t.counts.(i) <- t.counts.(i) + 1;
      t.h_sum <- t.h_sum +. v;
      t.h_count <- t.h_count + 1;
      if v < t.h_min then t.h_min <- v;
      if v > t.h_max then t.h_max <- v
    end

  let count t = t.h_count
  let sum t = t.h_sum
  let bucket_bounds t = Array.copy t.bounds
  let bucket_counts t = Array.copy t.counts

  let estimate_quantile ~bounds ~counts ~count ~minimum ~maximum q =
    if q < 0. || q > 1. then invalid_arg "Cap_obs.Metrics.Histogram.quantile";
    if count = 0 then nan
    else if q = 0. then minimum
    else if q = 1. then maximum
    else begin
      let target = q *. float_of_int count in
      let n = Array.length bounds in
      let acc = ref 0. in
      let result = ref maximum in
      (try
         for i = 0 to n do
           let before = !acc in
           acc := !acc +. float_of_int counts.(i);
           if !acc >= target then begin
             let upper = if i >= n then maximum else min bounds.(i) maximum in
             let lower =
               if i = 0 then max (bounds.(0) /. 2.) minimum else max bounds.(i - 1) minimum
             in
             let fraction =
               if counts.(i) = 0 then 1. else (target -. before) /. float_of_int counts.(i)
             in
             (* geometric interpolation matches the log bucket layout *)
             result :=
               (if lower > 0. && upper > lower then lower *. ((upper /. lower) ** fraction)
                else upper);
             raise Exit
           end
         done
       with Exit -> ());
      !result
    end

  let quantile t q =
    estimate_quantile ~bounds:t.bounds ~counts:t.counts ~count:t.h_count ~minimum:t.h_min
      ~maximum:t.h_max q
end

type sample = {
  name : string;
  help : string;
  labels : label list;
  data : data;
}

and data =
  | Counter_sample of float
  | Gauge_sample of float
  | Histogram_sample of {
      bounds : float array;
      counts : int array;
      sum : float;
      count : int;
      min : float;
      max : float;
    }

let data_of = function
  | I_counter r -> Counter_sample !r
  | I_gauge r -> Gauge_sample !r
  | I_histogram h ->
      Histogram_sample
        {
          bounds = Array.copy h.bounds;
          counts = Array.copy h.counts;
          sum = h.h_sum;
          count = h.h_count;
          min = h.h_min;
          max = h.h_max;
        }

let collect () =
  List.rev_map
    (fun (e : entry) ->
      { name = e.name; help = e.help; labels = e.labels; data = data_of e.instrument })
    !order

let export_values () =
  List.rev_map (fun (e : entry) -> ((e.name, e.labels), data_of e.instrument)) !order

(* Restore is a state operation, not a recording: it applies even while
   Control is off, and silently skips instruments that are not (yet)
   registered in this process, are of another kind, or (histograms)
   have other bucket bounds. *)
let restore_values values =
  List.iter
    (fun (key, data) ->
      match Hashtbl.find_opt table key, data with
      | Some { instrument = I_counter r; _ }, Counter_sample v
      | Some { instrument = I_gauge r; _ }, Gauge_sample v ->
          r := v
      | Some { instrument = I_histogram h; _ }, Histogram_sample s
        when s.bounds = h.bounds && Array.length s.counts = Array.length h.counts ->
          Array.blit s.counts 0 h.counts 0 (Array.length h.counts);
          h.h_sum <- s.sum;
          h.h_count <- s.count;
          h.h_min <- s.min;
          h.h_max <- s.max
      | _ -> ())
    values

(* Zero values rather than dropping series: module-level instruments
   (the solvers') register once at program start and must survive. *)
let reset () =
  List.iter
    (fun e ->
      match e.instrument with
      | I_counter r | I_gauge r -> r := 0.
      | I_histogram h ->
          Array.fill h.counts 0 (Array.length h.counts) 0;
          h.h_sum <- 0.;
          h.h_count <- 0;
          h.h_min <- infinity;
          h.h_max <- neg_infinity)
    !order
