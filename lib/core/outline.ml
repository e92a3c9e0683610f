(** The Perennial proof-outline checker: Table 1 as executable rules.

    An *outline* is a proof script for one operation (or for recovery): a
    sequence of physical commands (lock, durable read/write, memory access)
    and ghost commands (open/close a crash invariant, simulate a spec step,
    synthesize a lease, take the spec crash step).  The checker executes the
    script symbolically over {!Seplogic.Assertion} heaps and enforces:

    - {b lease rule} (§5.3): a durable write needs both the master copy and
      the lease, and updates both; masters and leases at the same location
      agree (camera validity), which the checker saturates as pure facts;
    - {b lease synthesis} (§5.3): only recovery may mint a fresh lease, from
      a bare master copy;
    - {b crash invariants} (§5.1): invariants may be opened only around a
      single physical step and must be re-established when closed; their
      definitions may mention only durable capabilities (crash invariance);
    - {b versioned memory} (§5.2): on entry to recovery all volatile
      capabilities (points-to, leases, receipts) are gone — the version-
      bump's observable effect — and the crash invariant must still be
      establishable after every recovery step (idempotence, §5.5);
    - {b recovery helping} (§5.4): [j ⤇ op] tokens are durable, may be
      stored in crash invariants, and recovery may [Simulate] them to
      complete crashed operations;
    - {b refinement} (§4): [Simulate] consumes [j ⤇ op], applies the
      operation's symbolic transition to the [σ] cells (which must be at
      hand, i.e. inside an opened invariant), and produces [j ⤇ ret v];
      the operation outline must end owning [j ⤇ ret] at the declared
      return value.

    [check_system] bundles the per-operation obligations, the recovery
    obligation and the syntactic side conditions — the premises of
    Theorem 2.  The {!Refinement} checker independently validates the
    *conclusion* of that theorem on finite instances. *)

module A = Seplogic.Assertion
module Sv = Seplogic.Sval
module Pu = Seplogic.Pure

(* ------------------------------------------------------------------ *)
(* System description                                                  *)
(* ------------------------------------------------------------------ *)

type sym_op = {
  op_name : string;
  sym_apply :
    lookup:(string -> Sv.t option) ->
    Sv.t list ->
    ((string * Sv.t) list * Sv.t, string) result;
      (** abstract transition on the [σ] cells: given the call's arguments
          and a reader for current cell values, return the cell updates and
          the return value (or an error for a malformed instantiation) *)
}

type system = {
  sys_name : string;
  ops : sym_op list;
  crash_cells : lookup:(string -> Sv.t option) -> (string * Sv.t) list;
      (** the spec crash transition, as cell updates (empty = crash loses
          nothing) *)
  lock_invs : (int * A.t) list;  (** lock id -> lock invariant *)
  crash_invs : (string * A.t) list;  (** named crash invariants *)
}

let find_op sys name = List.find_opt (fun o -> String.equal o.op_name name) sys.ops

(* ------------------------------------------------------------------ *)
(* Outline language                                                    *)
(* ------------------------------------------------------------------ *)

type cmd =
  | Acquire of int
  | Release of int
  | Write_durable of { loc : string; value : Sv.t }
  | Read_durable of { loc : string; bind : string }
  | Write_mem of { ptr : string; value : Sv.t }
  | Read_mem of { ptr : string; bind : string }
  | Alloc_mem of { ptr : string; value : Sv.t }
  | Open_inv of { name : string; body : cmd list }
      (** open a crash invariant around one atomic step *)
  | Atomic of cmd list
      (** group one physical step with its ghost steps (recovery) *)
  | Simulate of { op : string; args : Sv.t list; bind_ret : string }
      (** ghost: consume a matching [j ⤇ op] token, step the [σ] cells,
          produce [j ⤇ ret] *)
  | Crash_step  (** ghost: [⤇Crashing] to [⤇Done], applying [crash_cells] *)
  | Synthesize of string  (** ghost, recovery only: master -> master ∗ lease *)
  | Choice of cmd list list
      (** proof-level alternation: the first verifying alternative is used
          (case analysis whose cases need different ghost steps) *)
  | Case_eq of Sv.t * Sv.t
      (** classical case split: the remainder of the outline is checked
          twice, once assuming the values equal and once assuming them
          distinct.  Needed to pick the right crash-invariant disjunct when
          it is guarded by a (dis)equality, as in the paper's "if v1 ≠ v2
          then j ⤇ Write(a, v1)" (§5.4). *)
  | Assert_eq of Sv.t * Sv.t
      (** proof assertion: the pure facts must entail the equality.  Used
          inside [Choice] alternatives to make the wrong case fail early
          rather than at the postcondition. *)

type op_outline = {
  o_op : string;
  o_args : Sv.t list;
  o_ret : Sv.t;
  o_body : cmd list;
}

type recovery_outline = { r_body : cmd list }

(* ------------------------------------------------------------------ *)
(* Checking                                                            *)
(* ------------------------------------------------------------------ *)

exception Reject of string

let rejectf fmt = Fmt.kstr (fun s -> raise (Reject s)) fmt

type report = { branches : int; cmds_checked : int }

let pp_report ppf r =
  Fmt.pf ppf "branches=%d commands=%d" r.branches r.cmds_checked

type result = Accepted of report | Rejected of string

let pp_result ppf = function
  | Accepted r -> Fmt.pf ppf "accepted (%a)" pp_report r
  | Rejected why -> Fmt.pf ppf "REJECTED: %s" why

type mode = Normal | Recovery

type st = { heap : A.heap; held : int list }

(* Fresh rigid variables for existentials introduced into the symbolic
   heap (lock/crash invariant contents). *)
let gensym_counter = ref 0

let rename_fresh (h : A.heap) : A.heap =
  let vars = A.vars_of_heap h in
  let subst =
    List.fold_left
      (fun s x ->
        incr gensym_counter;
        Sv.Subst.add x (Sv.Var (Printf.sprintf "%s~%d" x !gensym_counter)) s)
      Sv.Subst.empty vars
  in
  A.apply_heap subst h

(* Camera validity of the lease algebra: a master and a lease for the same
   location agree on the value.  Saturated into pure facts whenever heaps
   are composed. *)
let saturate_agreement (h : A.heap) : A.heap =
  let masters =
    List.filter_map
      (function A.Master { loc; value } -> Some (loc, value) | _ -> None)
      h.atoms
  in
  let extra =
    List.filter_map
      (function
        | A.Lease { loc; value } -> (
          match List.assoc_opt loc masters with
          | Some mv when not (Sv.equal mv value) -> Some (Pu.eq mv value)
          | _ -> None)
        | _ -> None)
      h.atoms
  in
  { h with pures = extra @ h.pures }

let count_physical cmds =
  let rec atom_count = function
    | Write_durable _ | Read_durable _ | Write_mem _ | Read_mem _ | Alloc_mem _ -> 1
    | Simulate _ | Crash_step | Synthesize _ | Case_eq _ | Assert_eq _ -> 0
    | Choice alts ->
      List.fold_left (fun m alt -> max m (List.fold_left (fun a c -> a + atom_count c) 0 alt)) 0 alts
    | Acquire _ | Release _ | Open_inv _ | Atomic _ -> 1000 (* disallowed inside atomic blocks *)
  in
  List.fold_left (fun a c -> a + atom_count c) 0 cmds

let replace_atom ~what ~err h mk =
  match A.take_atom what h with
  | Some (old, h') -> (old, A.add_atom (mk old) h')
  | None -> rejectf "%s" err

(* Find a spec token matching [op]/[args] under the heap's pure facts. *)
let find_matching_tok op args h =
  let candidates =
    List.filter_map
      (function
        | A.Spec_tok { j; op = o; args = a } when String.equal o op && List.length a = List.length args ->
          Some (j, a)
        | _ -> None)
      h.A.atoms
  in
  List.find_opt
    (fun (_, a) -> Pu.entails_all h.A.pures (List.map2 Pu.eq args a))
    candidates

let check_crash_inv_durable sys =
  List.iter
    (fun (name, disjuncts) ->
      List.iter
        (fun (d : A.heap) ->
          List.iter
            (fun atom ->
              if not (A.durable atom) then
                rejectf
                  "crash invariant %s mentions volatile capability %a (crash-invariance side condition, §5.5)"
                  name A.pp_atom atom)
            d.A.atoms)
        disjuncts)
    sys.crash_invs

(* Prefix a heap's variables so that differently-named invariants never
   alias each other's existentials when starred into a combination. *)
let qualify_vars prefix (h : A.heap) : A.heap =
  let subst =
    List.fold_left
      (fun s x -> Sv.Subst.add x (Sv.Var (prefix ^ "." ^ x)) s)
      Sv.Subst.empty (A.vars_of_heap h)
  in
  A.apply_heap subst h

(* Star together one disjunct choice per named invariant, in all
   combinations, with per-invariant variable namespaces. *)
let inv_combinations invs : A.heap list =
  List.fold_left
    (fun acc (name, disjuncts) ->
      List.concat_map
        (fun h -> List.map (fun d -> A.star h (qualify_vars name d)) disjuncts)
        acc)
    [ A.emp ] invs

(* The combined crash invariant, as the product of per-name disjunct
   choices (branching).  Used for the idempotence check and for recovery's
   initial heap. *)
let crash_inv_combinations sys : A.heap list = inv_combinations sys.crash_invs

(* Check (without consuming) that the heap re-establishes every crash
   invariant simultaneously — the recovery idempotence obligation. *)
let check_idempotence sys (h : A.heap) =
  let ok =
    List.exists
      (fun combo -> A.match_heap ~scrutinee:h ~pattern:combo () <> None)
      (crash_inv_combinations sys)
  in
  if not ok then
    rejectf "crash invariant not re-establishable mid-recovery (idempotence, §5.5): %a"
      A.pp_heap h

let checked = ref 0

(* A symbolic state whose pure facts are contradictory, or that owns two
   copies of an exclusive capability, describes an unreachable execution:
   the branch is vacuously verified. *)
let vacuous_state (st : st) =
  Pu.inconsistent st.heap.A.pures || A.heap_invalid st.heap

let rec exec sys mode ~toplevel (st : st) (cmds : cmd list) : st list =
  match cmds with
  | [] -> [ st ]
  | cmd :: rest ->
    incr checked;
    if vacuous_state st then [ st ]
    else begin
      let posts = step sys mode ~toplevel st cmd in
      if mode = Recovery && toplevel then
        List.iter
          (fun s -> if not (vacuous_state s) then check_idempotence sys s.heap)
          posts;
      List.concat_map (fun s -> exec sys mode ~toplevel s rest) posts
    end

and step sys mode ~toplevel (st : st) (cmd : cmd) : st list =
  match cmd with
  | Acquire l ->
    if List.mem l st.held then rejectf "lock %d re-acquired (self-deadlock)" l;
    let inv =
      match List.assoc_opt l sys.lock_invs with
      | Some i -> i
      | None -> rejectf "no lock invariant declared for lock %d" l
    in
    List.map
      (fun d ->
        let d = rename_fresh d in
        { heap = saturate_agreement (A.star st.heap d); held = l :: st.held })
      inv
  | Release l ->
    if not (List.mem l st.held) then rejectf "lock %d released but not held" l;
    let inv = List.assoc l sys.lock_invs in
    (match A.entails ~scrutinee:st.heap ~pattern:inv () with
    | Some (_, { A.frame; _ }) ->
      [ { heap = { st.heap with atoms = frame }; held = List.filter (( <> ) l) st.held } ]
    | None ->
      rejectf "cannot re-establish lock invariant %d on release from %a" l A.pp_heap
        st.heap)
  | Write_durable { loc; value } ->
    let _, h =
      replace_atom
        ~what:(function A.Master { loc = l; _ } -> String.equal l loc | _ -> false)
        ~err:
          (Fmt.str "durable write to %s without the master copy (open the crash invariant)"
             loc)
        st.heap
        (fun _ -> A.master loc value)
    in
    let _, h =
      replace_atom
        ~what:(function A.Lease { loc = l; _ } -> String.equal l loc | _ -> false)
        ~err:(Fmt.str "durable write to %s without holding its lease (§5.3)" loc)
        h
        (fun _ -> A.lease loc value)
    in
    [ { st with heap = h } ]
  | Read_durable { loc; bind } ->
    let value =
      match A.find_lease loc st.heap with
      | Some v -> v
      | None -> (
        match A.find_master loc st.heap with
        | Some v -> v
        | None -> rejectf "durable read of %s without lease or master" loc)
    in
    [ { st with heap = A.add_pure (Pu.eq (Sv.var bind) value) st.heap } ]
  | Write_mem { ptr; value } ->
    let _, h =
      replace_atom
        ~what:(function A.Pts { ptr = p; _ } -> String.equal p ptr | _ -> false)
        ~err:(Fmt.str "store to %s without p ↦ v" ptr)
        st.heap
        (fun _ -> A.pts ptr value)
    in
    [ { st with heap = h } ]
  | Read_mem { ptr; bind } ->
    (match A.find_pts ptr st.heap with
    | Some v -> [ { st with heap = A.add_pure (Pu.eq (Sv.var bind) v) st.heap } ]
    | None -> rejectf "load from %s without p ↦ v" ptr)
  | Alloc_mem { ptr; value } ->
    if A.find_pts ptr st.heap <> None then rejectf "allocation reuses live pointer %s" ptr;
    [ { st with heap = A.add_atom (A.pts ptr value) st.heap } ]
  | Open_inv { name; body } ->
    if mode = Recovery then
      rejectf "recovery owns the crash invariant outright; Open_inv %s is meaningless" name;
    let inv =
      match List.assoc_opt name sys.crash_invs with
      | Some i -> i
      | None -> rejectf "unknown crash invariant %s" name
    in
    if count_physical body > 1 then
      rejectf "invariant %s opened across more than one atomic step" name;
    let close st' =
      if vacuous_state st' then st'
      else
        match A.entails ~scrutinee:st'.heap ~pattern:inv () with
        | Some (_, { A.frame; _ }) -> { st' with heap = { st'.heap with atoms = frame } }
        | None -> rejectf "cannot close crash invariant %s from %a" name A.pp_heap st'.heap
    in
    List.concat_map
      (fun d ->
        let d = rename_fresh d in
        let opened = { st with heap = saturate_agreement (A.star st.heap d) } in
        List.map close (exec sys mode ~toplevel:false opened body))
      inv
  | Atomic body ->
    if count_physical body > 1 then rejectf "Atomic block with more than one physical step";
    exec sys mode ~toplevel:false st body
  | Simulate { op; args; bind_ret } ->
    let sym =
      match find_op sys op with
      | Some s -> s
      | None -> rejectf "Simulate of unknown operation %s" op
    in
    (match find_matching_tok op args st.heap with
    | None ->
      rejectf "no %s(%a) token available to simulate" op (Fmt.list ~sep:Fmt.comma Sv.pp)
        args
    | Some (j, tok_args) ->
      let h =
        match
          A.take_atom
            (function
              | A.Spec_tok { j = j'; op = o; args = a } ->
                Sv.equal j' j && String.equal o op && a == tok_args
              | _ -> false)
            st.heap
        with
        | Some (_, h) -> h
        | None -> assert false
      in
      let lookup k = A.find_spec_cell k h in
      (match sym.sym_apply ~lookup tok_args with
      | Error e -> rejectf "simulation of %s failed: %s" op e
      | Ok (updates, ret) ->
        let h =
          List.fold_left
            (fun h (k, v) ->
              let _, h =
                replace_atom
                  ~what:(function A.Spec_cell { key; _ } -> String.equal key k | _ -> false)
                  ~err:
                    (Fmt.str
                       "simulation updates σ[%s] but that cell is not at hand (open the invariant)"
                       k)
                  h
                  (fun _ -> A.spec_cell k v)
              in
              h)
            h updates
        in
        let h = A.add_atom (A.spec_ret j ret) h in
        let h = A.add_pure (Pu.eq (Sv.var bind_ret) ret) h in
        [ { st with heap = h } ]))
  | Crash_step ->
    (match A.take_atom (function A.Crash_tok A.Crashing -> true | _ -> false) st.heap with
    | None -> rejectf "Crash_step without the ⤇Crashing token"
    | Some (_, h) ->
      let lookup k = A.find_spec_cell k h in
      let updates = sys.crash_cells ~lookup in
      let h =
        List.fold_left
          (fun h (k, v) ->
            let _, h =
              replace_atom
                ~what:(function A.Spec_cell { key; _ } -> String.equal key k | _ -> false)
                ~err:(Fmt.str "crash transition updates missing cell σ[%s]" k)
                h
                (fun _ -> A.spec_cell k v)
            in
            h)
          h updates
      in
      [ { st with heap = A.add_atom (A.crash_tok A.Done_crash) h } ])
  | Synthesize loc ->
    if mode <> Recovery then
      rejectf "lease synthesis outside recovery (the version bump only happens on crash, §5.3)";
    (match A.find_master loc st.heap with
    | None -> rejectf "cannot synthesize a lease for %s without its master copy" loc
    | Some v ->
      if A.find_lease loc st.heap <> None then
        rejectf "lease for %s already exists; synthesis would duplicate it" loc;
      [ { st with heap = A.add_atom (A.lease loc v) st.heap } ])
  | Choice alts ->
    let rec first = function
      | [] -> rejectf "no alternative of a Choice verifies"
      | alt :: more -> (
        match exec sys mode ~toplevel st alt with
        | sts -> sts
        | exception Reject _ -> first more)
    in
    first alts
  | Case_eq (a, b) ->
    [ { st with heap = A.add_pure (Pu.eq a b) st.heap };
      { st with heap = A.add_pure (Pu.neq a b) st.heap } ]
  | Assert_eq (a, b) ->
    if Pu.entails st.heap.A.pures (Pu.eq a b) then [ st ]
    else rejectf "assertion %a = %a not provable" Sv.pp a Sv.pp b

(* ------------------------------------------------------------------ *)
(* Top-level obligations                                               *)
(* ------------------------------------------------------------------ *)

let run_check f =
  checked := 0;
  match Obs.Trace.with_span ~cat:"outline" "outline.check" f with
  | branches -> Accepted { branches; cmds_checked = !checked }
  | exception Reject why -> Rejected why

(** Check one operation outline: from [j ⤇ op(args)], through the body,
    to [j ⤇ ret].  Lock invariants are implicit ambient state; crash
    invariants hold throughout by the open/close discipline. *)
let check_op sys (o : op_outline) : result =
  run_check (fun () ->
      if find_op sys o.o_op = None then rejectf "outline for unknown operation %s" o.o_op;
      let j = Sv.var "j_self" in
      let init =
        { heap = A.heap [ A.spec_tok j o.o_op o.o_args ]; held = [] }
      in
      let finals = exec sys Normal ~toplevel:true init o.o_body in
      List.iter
        (fun st ->
          if vacuous_state st then ()
          else begin
          if st.held <> [] then
            rejectf "operation finishes still holding locks %a"
              (Fmt.list ~sep:Fmt.comma Fmt.int) st.held;
          let rigid = A.vars_of_heap st.heap in
          let post = A.heap [ A.spec_ret j o.o_ret ] in
          match A.match_heap ~rigid ~scrutinee:st.heap ~pattern:post () with
          | Some _ -> ()
          | None ->
            rejectf "operation post-condition %a not derivable from %a" A.pp_heap post
              A.pp_heap st.heap
          end)
        finals;
      List.length finals)

(** Check the recovery outline: starting from the crash invariant's durable
    contents and [⤇Crashing] — everything volatile is gone, the observable
    effect of the version bump — recovery must re-establish every crash
    invariant and every lock invariant, and finish with [⤇Done]. *)
let check_recovery sys (r : recovery_outline) : result =
  run_check (fun () ->
      check_crash_inv_durable sys;
      let initials =
        List.map
          (fun combo ->
            let h = rename_fresh combo in
            { heap = A.add_atom (A.crash_tok A.Crashing) h; held = [] })
          (crash_inv_combinations sys)
      in
      let finals =
        List.concat_map (fun st -> exec sys Recovery ~toplevel:true st r.r_body) initials
      in
      List.iter
        (fun st ->
          if vacuous_state st then ()
          else begin
          if st.held <> [] then rejectf "recovery finishes holding locks";
          (* Re-establish all crash invariants and lock invariants, and own
             the ⤇Done token: the AbsR_{n+1} of Theorem 2. *)
          let lock_combos =
            inv_combinations
              (List.map (fun (l, d) -> (Printf.sprintf "lk%d" l, d)) sys.lock_invs)
          in
          let full_combos =
            List.concat_map
              (fun ci ->
                List.map
                  (fun li -> A.star (A.star ci li) (A.heap [ A.crash_tok A.Done_crash ]))
                  lock_combos)
              (crash_inv_combinations sys)
          in
          let ok =
            List.exists
              (fun combo -> A.match_heap ~scrutinee:st.heap ~pattern:combo () <> None)
              full_combos
          in
          if not ok then
            rejectf "recovery cannot re-establish the abstraction relation from %a"
              A.pp_heap st.heap
          end)
        finals;
      List.length finals)

(** All of Theorem 2's premises for a system: every operation outline, the
    recovery outline, and the syntactic crash-invariance side condition. *)
let check_system sys ~(op_outlines : op_outline list) ~(recovery : recovery_outline) :
    (string * result) list =
  let per_op =
    List.map (fun o -> (Printf.sprintf "op %s" o.o_op, check_op sys o)) op_outlines
  in
  per_op @ [ ("recovery", check_recovery sys recovery) ]
