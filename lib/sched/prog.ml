module V = Tslang.Value

type ('w, 'b) step_result =
  | Steps of ('w * 'b) list
  | Ub of string

type mark = Enter of { sm_name : string; sm_cat : string } | Exit

type ('w, 'a) t =
  | Done of 'a
  | Mark of mark * ('w, 'a) t
  | Atomic : {
      label : string;
      fp : 'w -> Footprint.t;
      action : 'w -> ('w, 'b) step_result;
      faults : 'w -> (Fault.kind * 'w * 'b) list;
      k : 'b -> ('w, 'a) t;
    }
      -> ('w, 'a) t

let return a = Done a

let rec bind : type a b. ('w, a) t -> (a -> ('w, b) t) -> ('w, b) t =
 fun m f ->
  match m with
  | Done a -> f a
  | Mark (m, p) -> Mark (m, bind p f)
  | Atomic { label; fp; action; faults; k } ->
    Atomic { label; fp; action; faults; k = (fun v -> bind (k v) f) }

let map f m = bind m (fun a -> Done (f a))

let unknown_fp _w = Footprint.Unknown
let no_faults _w = []

let atomic ?(fp = unknown_fp) ?(faults = no_faults) label action =
  Atomic { label; fp; action; faults; k = (fun v -> Done v) }

let det ?fp label f = atomic ?fp label (fun w -> Steps [ f w ])
let read ?fp label f = det ?fp label (fun w -> (w, f w))

let write ?fp label f =
  bind (det ?fp label (fun w -> (f w, V.unit))) (fun _ -> Done ())

let blocked_until ?fp label f =
  atomic ?fp label (fun w -> match f w with None -> Steps [] | Some out -> Steps [ out ])

let ub reason =
  Atomic
    {
      label = "UB";
      fp = unknown_fp;
      action = (fun _ -> (Ub reason : ('w, unit) step_result));
      faults = no_faults;
      k = (fun () -> assert false);
    }

let rec seq = function
  | [] -> Done ()
  | m :: rest -> bind m (fun () -> seq rest)

module Syntax = struct
  let ( let* ) = bind
  let ( let+ ) m f = map f m
end

let rec lift : type a. get:('w -> 'v) -> set:('w -> 'v -> 'w) -> ('v, a) t -> ('w, a) t =
 fun ~get ~set -> function
  | Done a -> Done a
  | Mark (m, p) -> Mark (m, lift ~get ~set p)
  | Atomic { label; fp; action; faults; k } ->
    Atomic
      {
        label;
        fp = (fun w -> fp (get w));
        action =
          (fun w ->
            match action (get w) with
            | Ub r -> Ub r
            | Steps outs -> Steps (List.map (fun (v', b) -> (set w v', b)) outs));
        faults =
          (fun w -> List.map (fun (kd, v', b) -> (kd, set w v', b)) (faults (get w)));
        k = (fun b -> lift ~get ~set (k b));
      }

let span ?(cat = "") name p =
  Mark (Enter { sm_name = name; sm_cat = cat }, bind p (fun v -> Mark (Exit, Done v)))

let rec strip_marks : type a. ('w, a) t -> ('w, a) t = function
  | Mark (_, p) -> strip_marks p
  | p -> p
