(* Lightweight counters and histograms used by the engine, the lock
   manager and the benchmark harness.  Everything is in-memory and
   allocation-light so that enabling statistics does not distort the
   benchmarks that read them. *)

module Counter = struct
  type t = { name : string; mutable value : int }

  let create name = { name; value = 0 }
  let incr t = t.value <- t.value + 1
  let add t n = t.value <- t.value + n
  let get t = t.value
  let reset t = t.value <- 0
  let name t = t.name
  let pp ppf t = Format.fprintf ppf "%s=%d" t.name t.value
end

module Histogram = struct
  (* Fixed-bucket histogram for integer observations (e.g. retry counts,
     lock-queue lengths).  The last bucket is an overflow bucket. *)
  type t = { name : string; bounds : int array; buckets : int array }

  let create name ~bounds =
    let sorted = Array.copy bounds in
    Array.sort Int.compare sorted;
    { name; bounds = sorted; buckets = Array.make (Array.length sorted + 1) 0 }

  let observe t x =
    let n = Array.length t.bounds in
    let rec find i = if i >= n then n else if x <= t.bounds.(i) then i else find (i + 1) in
    let i = find 0 in
    t.buckets.(i) <- t.buckets.(i) + 1

  let buckets t = Array.copy t.buckets

  let total t = Array.fold_left ( + ) 0 t.buckets

  let pp ppf t =
    Format.fprintf ppf "%s:" t.name;
    Array.iteri
      (fun i count ->
        if i < Array.length t.bounds then
          Format.fprintf ppf " <=%d:%d" t.bounds.(i) count
        else Format.fprintf ppf " >:%d" count)
      t.buckets
end
