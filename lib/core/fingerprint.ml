type pend = {
  f_ptid : int;
  f_op : string;
  f_args : string list;
  f_result : string option;
}

type cand = { f_state : string; f_pend : pend list }

type thr = { f_tid : int; f_class : string; f_hist : string list }

type state = {
  f_world : string;
  f_cands : cand list;
  f_phase : string;
  f_crashes : int;
  f_fused : int;
  f_fsite : int;
  f_threads : thr list;
}

(* ------------------------------------------------------------------ *)
(* Token renaming (key symmetry)                                       *)
(* ------------------------------------------------------------------ *)

let is_digit c = c >= '0' && c <= '9'

let rename_tokens ~prefix s =
  let plen = String.length prefix in
  if plen = 0 then invalid_arg "Fingerprint.rename_tokens: empty prefix";
  let n = String.length s in
  let buf = Buffer.create n in
  let names : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let next = ref 0 in
  let i = ref 0 in
  while !i < n do
    if !i + plen < n && String.sub s !i plen = prefix && is_digit s.[!i + plen] then begin
      let j = ref (!i + plen) in
      while !j < n && is_digit s.[!j] do incr j done;
      let tok = String.sub s !i (!j - !i) in
      let id =
        match Hashtbl.find_opt names tok with
        | Some id -> id
        | None ->
          let id = !next in
          incr next;
          Hashtbl.add names tok id;
          id
      in
      Buffer.add_string buf prefix;
      Buffer.add_string buf (string_of_int id);
      i := !j
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Canonical rendering                                                 *)
(* ------------------------------------------------------------------ *)

(* Render with [m] mapping original tids to canonical ones and [order]
   giving the thread listing order.  '\x1f' (unit separator) delimits
   records so no rendered payload can collide across fields.  Pending
   entries are sorted by their *mapped* tid and candidate renderings are
   sorted lexicographically: the result must be a function of the state up
   to tid relabeling, never of the original tid numbers' order. *)
let render st ~(m : int -> int) ~(order : thr list) =
  let buf = Buffer.create 256 in
  let sep () = Buffer.add_char buf '\x1f' in
  Buffer.add_string buf "W|";
  Buffer.add_string buf st.f_world;
  sep ();
  Buffer.add_string buf
    (Printf.sprintf "P|%s|c=%d|f=%d|s=%d" st.f_phase st.f_crashes st.f_fused st.f_fsite);
  sep ();
  List.iter
    (fun t ->
      Buffer.add_string buf
        (Printf.sprintf "T|%d|%s|h=%s" (m t.f_tid) t.f_class (String.concat ";" t.f_hist));
      sep ())
    order;
  let cand_strs =
    List.map
      (fun c ->
        let pends =
          List.map
            (fun p ->
              Printf.sprintf "|%d:%s(%s)%s" (m p.f_ptid) p.f_op
                (String.concat "," p.f_args)
                (match p.f_result with None -> "" | Some r -> "->" ^ r))
            c.f_pend
          |> List.sort String.compare
        in
        "C|" ^ c.f_state ^ String.concat "" pends)
      st.f_cands
    |> List.sort String.compare
  in
  List.iter
    (fun s ->
      Buffer.add_string buf s;
      sep ())
    cand_strs;
  Buffer.contents buf

let rec permutations = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x ->
        let rest = List.filter (fun y -> y != x) l in
        List.map (fun p -> x :: p) (permutations rest))
      l

(* All ways to permute each group independently, as full thread orders. *)
let group_orders groups =
  List.fold_right
    (fun group acc ->
      let perms = permutations group in
      List.concat_map (fun p -> List.map (fun rest -> p @ rest) acc) perms)
    groups [ [] ]

let canonical ?(symmetry = false) ?key_prefix st =
  let finish s = match key_prefix with
    | Some p when symmetry -> rename_tokens ~prefix:p s
    | _ -> s
  in
  if not symmetry then finish (render st ~m:(fun t -> t) ~order:st.f_threads)
  else begin
    (* Group threads by (class, history); within a group they are
       interchangeable candidates.  Canonical = lexicographic min of the
       rendering over every within-group permutation, with tids remapped
       to their position in the chosen order. *)
    let keyed =
      List.map (fun t -> ((t.f_class, t.f_hist), t)) st.f_threads
      |> List.sort (fun (k1, t1) (k2, t2) ->
             match compare k1 k2 with 0 -> compare t1.f_tid t2.f_tid | c -> c)
    in
    let groups =
      List.fold_right
        (fun (k, t) acc ->
          match acc with
          | (k', g) :: rest when k = k' -> (k', t :: g) :: rest
          | _ -> (k, [ t ]) :: acc)
        keyed []
      |> List.map snd
    in
    let best = ref None in
    List.iter
      (fun order ->
        let slot = Hashtbl.create 8 in
        List.iteri (fun i t -> Hashtbl.replace slot t.f_tid i) order;
        let m tid = match Hashtbl.find_opt slot tid with Some i -> i | None -> tid in
        let s = finish (render st ~m ~order) in
        match !best with
        | Some b when String.compare b s <= 0 -> ()
        | _ -> best := Some s)
      (group_orders groups);
    match !best with Some s -> s | None -> finish (render st ~m:(fun t -> t) ~order:[])
  end

(* ------------------------------------------------------------------ *)
(* Global sharded intern table                                         *)
(* ------------------------------------------------------------------ *)

type t = { fp_id : int; fp_key : string }

let id t = t.fp_id
let key t = t.fp_key
let equal a b = String.equal a.fp_key b.fp_key
let compare a b = String.compare a.fp_key b.fp_key

let n_shards = 16

type shard = { tbl : (string, int) Hashtbl.t; lock : Mutex.t }

let shards =
  Array.init n_shards (fun _ -> { tbl = Hashtbl.create 1024; lock = Mutex.create () })

let next_id = Atomic.make 0

let shard_of s = shards.(Hashtbl.hash s land (n_shards - 1))

let intern s =
  let sh = shard_of s in
  Mutex.lock sh.lock;
  let r =
    match Hashtbl.find_opt sh.tbl s with
    | Some id -> ({ fp_id = id; fp_key = s }, false)
    | None ->
      let id = Atomic.fetch_and_add next_id 1 in
      Hashtbl.add sh.tbl s id;
      ({ fp_id = id; fp_key = s }, true)
  in
  Mutex.unlock sh.lock;
  r

let digest ?symmetry st = intern (canonical ?symmetry st)

let table_size () =
  Array.fold_left
    (fun acc sh ->
      Mutex.lock sh.lock;
      let n = Hashtbl.length sh.tbl in
      Mutex.unlock sh.lock;
      acc + n)
    0 shards

let reset () =
  Array.iter
    (fun sh ->
      Mutex.lock sh.lock;
      Hashtbl.reset sh.tbl;
      Mutex.unlock sh.lock)
    shards;
  Atomic.set next_id 0
