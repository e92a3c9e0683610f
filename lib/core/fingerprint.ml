type pend = {
  f_ptid : int;
  f_op : string;
  f_args : string list;
  f_result : string option;
}

type cand = { f_state : string; f_pend : pend list }

type thr = { f_tid : int; f_class : string }

type state = {
  f_world : string;
  f_cands : cand list;
  f_crashes : int;
  f_fused : int;
  f_fsite : int;
  f_threads : thr list;
}

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
  Buffer.add_string buf (Printf.sprintf "P|c=%d|f=%d|s=%d" st.f_crashes st.f_fused st.f_fsite);
  sep ();
  List.iter
    (fun t ->
      Buffer.add_string buf (Printf.sprintf "T|%d|%s" (m t.f_tid) t.f_class);
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

let canonical ?(symmetry = false) st =
  if not symmetry then render st ~m:(fun t -> t) ~order:st.f_threads
  else begin
    (* Group threads by class; within a group they are interchangeable
       candidates.  Canonical = lexicographic min of the rendering over
       every within-group permutation, with tids remapped to their
       position in the chosen order. *)
    let keyed =
      List.sort
        (fun t1 t2 ->
          match String.compare t1.f_class t2.f_class with
          | 0 -> Int.compare t1.f_tid t2.f_tid
          | c -> c)
        st.f_threads
    in
    let groups =
      List.fold_right
        (fun t acc ->
          match acc with
          | (t' :: _ as g) :: rest when String.equal t.f_class t'.f_class -> (t :: g) :: rest
          | _ -> [ t ] :: acc)
        keyed []
    in
    let best = ref None in
    List.iter
      (fun order ->
        let slot = Hashtbl.create 8 in
        List.iteri (fun i t -> Hashtbl.replace slot t.f_tid i) order;
        let m tid = match Hashtbl.find_opt slot tid with Some i -> i | None -> tid in
        let s = render st ~m ~order in
        match !best with
        | Some b when String.compare b s <= 0 -> ()
        | _ -> best := Some s)
      (group_orders groups);
    match !best with Some s -> s | None -> render st ~m:(fun t -> t) ~order:[]
  end
