(* Clock and sample sets.  Times are bechamel's monotonic clock in
   nanoseconds: a fs read takes about 5 us, which a microsecond wall clock
   cannot resolve. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* A growable set of integer samples (nanoseconds or counts). *)
type t = { mutable data : int array; mutable len : int }

let create () = { data = Array.make 1024 0; len = 0 }

let add s v =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0 in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- v;
  s.len <- s.len + 1

(* Nearest-rank percentile, [p] in (0, 100]; 0 on an empty set. *)
let percentile s p =
  if s.len = 0 then 0
  else begin
    let a = Array.sub s.data 0 s.len in
    Array.sort compare a;
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int s.len)) in
    a.(max 0 (min (s.len - 1) (rank - 1)))
  end

(* Median of a float list (mean of the middle pair on even length). *)
let median = function
  | [] -> 0.
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
