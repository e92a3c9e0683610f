(* Tests for the resource-algebra library: camera laws per instance, and the
   frame-preserving updates Perennial's techniques depend on. *)

module Int_eq = struct
  type t = int

  let equal = Int.equal
  let compare = Int.compare
  let pp = Fmt.int
end

module Str_eq = struct
  type t = string

  let equal = String.equal
  let compare = String.compare
  let pp = Fmt.string
end

module Ex = Ra.Excl.Make (Int_eq)
module Ag = Ra.Agree.Make (Str_eq)
module Gs = Ra.Gset.Make (Int_eq)
module ExOpt = Ra.Opt.Make (Ex)
module P = Ra.Prod.Make (ExOpt) (Ra.Max_nat)
module Sm = Ra.Sum.Make (Ex) (Ag)
module Fm = Ra.Fin_map.Make (Int_eq) (Ex)
module Au = Ra.Auth.Make (Fm)
module Ls = Ra.Lease.Make (Str_eq)

let check_laws (type a) name (module M : Ra.Ra_intf.S with type t = a) (sample : a list) =
  let module L = Ra.Laws.Make (M) in
  match L.check_sample sample with
  | None -> ()
  | Some (a, b, c) ->
    Alcotest.failf "%s law violation at (%a, %a, %a)" name M.pp a M.pp b M.pp c

let ex_sample = [ Ex.ex 1; Ex.ex 2; Ex.bot ]
let ag_sample = [ Ag.ag "x"; Ag.ag "y"; Ag.bot ]
let gs_sample = [ Gs.of_list []; Gs.of_list [ 1 ]; Gs.of_list [ 1; 2 ]; Gs.of_list [ 3 ] ]
let exopt_sample = None :: List.map Option.some ex_sample
let maxnat_sample = [ 0; 1; 2; 5 ]

let prod_sample =
  List.concat_map (fun a -> List.map (fun b -> (a, b)) maxnat_sample) exopt_sample

let sum_sample = [ Sm.inl (Ex.ex 1); Sm.inl Ex.bot; Sm.inr (Ag.ag "x"); Sm.inr (Ag.ag "y") ]

let fm_sample =
  [ Fm.unit; Fm.singleton 0 (Ex.ex 1); Fm.singleton 0 (Ex.ex 2); Fm.singleton 1 (Ex.ex 1);
    Fm.of_list [ (0, Ex.ex 1); (1, Ex.ex 2) ] ]

let auth_sample =
  List.concat_map
    (fun m -> [ Au.auth m; Au.frag m ])
    fm_sample

let lease_sample =
  [ Ls.unit; Ls.master 0 "a"; Ls.master 0 "b"; Ls.master 1 "a"; Ls.lease 0 "a";
    Ls.lease 0 "b"; Ls.lease 1 "a"; Ls.op (Ls.master 0 "a") (Ls.lease 0 "a");
    Ls.op (Ls.master 1 "b") (Ls.lease 1 "b") ]

let test_all_laws () =
  check_laws "Excl" (module Ex) ex_sample;
  check_laws "Agree" (module Ag) ag_sample;
  check_laws "Gset" (module Gs) gs_sample;
  check_laws "Opt(Excl)" (module ExOpt) exopt_sample;
  check_laws "MaxNat" (module Ra.Max_nat) maxnat_sample;
  check_laws "Prod" (module P) prod_sample;
  check_laws "Sum" (module Sm) sum_sample;
  check_laws "FinMap" (module Fm) fm_sample;
  check_laws "Auth" (module Au) auth_sample;
  check_laws "Lease" (module Ls) lease_sample

let test_unital_laws () =
  let module Lg = Ra.Laws.Unital_laws (Gs) in
  Alcotest.(check bool) "gset unit valid" true (Lg.unit_valid ());
  Alcotest.(check bool) "gset unit left" true (Lg.unit_left (Gs.of_list [ 1; 2 ]));
  Alcotest.(check bool) "gset unit core" true (Lg.unit_core ());
  let module Lf = Ra.Laws.Unital_laws (Fm) in
  Alcotest.(check bool) "finmap unit valid" true (Lf.unit_valid ());
  Alcotest.(check bool) "finmap unit left" true (Lf.unit_left (Fm.singleton 0 (Ex.ex 1)));
  let module Ll = Ra.Laws.Unital_laws (Ls) in
  Alcotest.(check bool) "lease unit valid" true (Ll.unit_valid ());
  Alcotest.(check bool) "lease unit left" true (Ll.unit_left (Ls.master 0 "a"))

(* --- behavioural tests per camera --- *)

let test_excl_exclusive () =
  Alcotest.(check bool) "two owners invalid" false (Ex.valid (Ex.op (Ex.ex 1) (Ex.ex 1)));
  Alcotest.(check bool) "no core" true (Ex.core (Ex.ex 1) = None)

let test_agree () =
  Alcotest.(check bool) "same agrees" true (Ag.valid (Ag.op (Ag.ag "v") (Ag.ag "v")));
  Alcotest.(check bool) "diff conflicts" false (Ag.valid (Ag.op (Ag.ag "v") (Ag.ag "w")));
  Alcotest.(check bool) "persistent" true
    (match Ag.core (Ag.ag "v") with Some c -> Ag.equal c (Ag.ag "v") | None -> false)

let test_frac () =
  let module F = Ra.Frac in
  Alcotest.(check bool) "halves combine to one" true
    (F.equal (F.op F.half F.half) F.one);
  Alcotest.(check bool) "one is valid" true (F.valid F.one);
  Alcotest.(check bool) "over one invalid" false (F.valid (F.op F.one F.half));
  Alcotest.(check bool) "split halves" true (F.equal (F.split F.one) F.half)

let test_q_arith () =
  let module Q = Ra.Q in
  Alcotest.(check bool) "normalization" true (Q.equal (Q.make 2 4) Q.half);
  Alcotest.(check int) "num" 1 (Q.num (Q.make 3 6));
  Alcotest.(check bool) "add" true (Q.equal (Q.add (Q.make 1 3) (Q.make 1 6)) Q.half);
  Alcotest.(check bool) "sub" true (Q.equal (Q.sub Q.one Q.half) Q.half);
  Alcotest.check_raises "bad denominator" (Invalid_argument "Q.make: nonpositive denominator")
    (fun () -> ignore (Q.make 1 0))

let test_max_nat () =
  let module N = Ra.Max_nat in
  Alcotest.(check int) "op is max" 5 (N.op 3 5);
  Alcotest.(check bool) "included" true (N.included 3 5);
  Alcotest.(check bool) "not included" false (N.included 5 3)

let test_auth_inclusion () =
  let a = Fm.of_list [ (0, Ex.ex 1); (1, Ex.ex 2) ] in
  let f_ok = Fm.singleton 0 (Ex.ex 1) in
  let f_bad = Fm.singleton 0 (Ex.ex 9) in
  Alcotest.(check bool) "frag within auth valid" true (Au.valid (Au.op (Au.auth a) (Au.frag f_ok)));
  Alcotest.(check bool) "lying frag invalid" false (Au.valid (Au.op (Au.auth a) (Au.frag f_bad)));
  Alcotest.(check bool) "two auths invalid" false (Au.valid (Au.op (Au.auth a) (Au.auth a)))

let test_finmap_disjoint () =
  let m1 = Fm.singleton 0 (Ex.ex 1) and m2 = Fm.singleton 1 (Ex.ex 2) in
  Alcotest.(check bool) "disjoint keys compose" true (Fm.valid (Fm.op m1 m2));
  Alcotest.(check bool) "same key conflicts" false
    (Fm.valid (Fm.op m1 (Fm.singleton 0 (Ex.ex 5))))

(* --- lease camera: the §5.3 rules --- *)

let test_lease_exclusivity () =
  Alcotest.(check bool) "two masters invalid" false
    (Ls.valid (Ls.op (Ls.master 0 "a") (Ls.master 0 "a")));
  Alcotest.(check bool) "two leases same version invalid" false
    (Ls.valid (Ls.op (Ls.lease 0 "a") (Ls.lease 0 "a")));
  Alcotest.(check bool) "leases at different versions coexist" true
    (Ls.valid (Ls.op (Ls.lease 0 "a") (Ls.lease 1 "b")));
  Alcotest.(check bool) "master+lease agree ok" true
    (Ls.valid (Ls.op (Ls.master 2 "v") (Ls.lease 2 "v")));
  Alcotest.(check bool) "master+lease disagree invalid" false
    (Ls.valid (Ls.op (Ls.master 2 "v") (Ls.lease 2 "w")))

let test_lease_write_rule () =
  (* Write requires both master and lease (paper §5.3 first rule). *)
  let pair = Ls.op (Ls.master 0 "old") (Ls.lease 0 "old") in
  (match Ls.write pair "new" with
  | Some x ->
    Alcotest.(check bool) "updated master" true
      (match Ls.get_master x with Some (0, "new") -> true | _ -> false);
    Alcotest.(check bool) "updated lease" true (Ls.get_lease 0 x = Some "new")
  | None -> Alcotest.fail "write should apply");
  Alcotest.(check bool) "bare master cannot write" true (Ls.write (Ls.master 0 "old") "new" = None);
  Alcotest.(check bool) "bare lease cannot write" true (Ls.write (Ls.lease 0 "old") "new" = None)

let test_lease_synthesis_rule () =
  (* Crash rule: master_n v ⇒ master_{n+1} v ⋅ lease_{n+1} v (§5.3). *)
  match Ls.synthesize (Ls.master 3 "v") with
  | Some x ->
    Alcotest.(check bool) "new master version" true
      (match Ls.get_master x with Some (4, "v") -> true | _ -> false);
    Alcotest.(check bool) "fresh lease" true (Ls.get_lease 4 x = Some "v")
  | None -> Alcotest.fail "synthesis should apply"

(* --- frame-preserving updates --- *)

let test_fpu_excl () =
  let module F = Ra.Fpu.Make (Ex) in
  (* Full ownership may be updated to anything. *)
  Alcotest.(check bool) "ex update ok" true (F.ok1 ~frames:ex_sample (Ex.ex 1) (Ex.ex 2))

let test_fpu_agree_fails () =
  let module F = Ra.Fpu.Make (Ag) in
  (* Changing an agreement element is NOT frame preserving: another thread
     may hold a copy. *)
  Alcotest.(check bool) "agree update rejected" false
    (F.ok1 ~frames:ag_sample (Ag.ag "x") (Ag.ag "y"));
  (match F.counterexample ~frames:ag_sample (Ag.ag "x") [ Ag.ag "y" ] with
  | Some f -> Alcotest.(check bool) "witness is the copy" true (Ag.equal f (Ag.ag "x"))
  | None -> Alcotest.fail "expected counterexample")

let test_fpu_lease_write () =
  let module F = Ra.Fpu.Make (Ls) in
  let pre = Ls.op (Ls.master 0 "a") (Ls.lease 0 "a") in
  let post = Ls.op (Ls.master 0 "b") (Ls.lease 0 "b") in
  Alcotest.(check bool) "write is frame-preserving" true
    (F.ok1 ~frames:lease_sample pre post);
  (* Updating the master alone is not: the lease holder would disagree,
     and its lease is the one frame needed to say so. *)
  Alcotest.(check bool) "master-only update rejected" false
    (F.ok1 ~frames:[ Ls.lease 0 "a" ] (Ls.master 0 "a") (Ls.master 0 "b"))

let test_fpu_lease_synthesis () =
  let module F = Ra.Fpu.Make (Ls) in
  (* Frames at versions <= n (the versioned-triple side condition). *)
  let frames_past =
    [ Ls.unit; Ls.lease 0 "a"; Ls.lease 0 "b"; Ls.master 0 "z" ]
  in
  let pre = Ls.master 0 "v" in
  let post = Ls.op (Ls.master 1 "v") (Ls.lease 1 "v") in
  Alcotest.(check bool) "synthesis frame-preserving vs past frames" true
    (F.ok1 ~frames:frames_past pre post);
  (* Against a frame already holding the future lease it would be unsound —
     exactly why versioning matters. *)
  Alcotest.(check bool) "unsound against future lease" false
    (F.ok1 ~frames:[ Ls.lease 1 "v" ] pre post)

let test_fpu_auth_update () =
  let module F = Ra.Fpu.Make (Au) in
  (* ●m ⋅ ◯m ⇝ ●m' ⋅ ◯m' — updating auth and frag together is allowed. *)
  let m = Fm.singleton 0 (Ex.ex 1) and m' = Fm.singleton 0 (Ex.ex 2) in
  Alcotest.(check bool) "auth+frag update" true
    (F.ok1 ~frames:auth_sample (Au.both m m) (Au.both m' m'));
  (* Updating only the authority under a fragment that pins the old value
     fails. *)
  Alcotest.(check bool) "auth-only update rejected" false
    (F.ok1 ~frames:[ Au.frag m ] (Au.auth m) (Au.auth m'))

(* --- fin_map composed under auth: the ghost heap the KVS proof uses --- *)

let auth_frames =
  (* Frame universe: fragments and authorities over the sample maps, plus
     single-cell fragments a concurrent thread would plausibly hold. *)
  auth_sample
  @ [ Au.frag (Fm.singleton 1 (Ex.ex 2)); Au.frag (Fm.singleton 2 (Ex.ex 3)) ]

let test_fpu_auth_alloc () =
  let module F = Ra.Fpu.Make (Au) in
  (* Allocation: ●m ⇝ ●(m[k↦v]) ⋅ ◯{k↦v} for fresh k — how a ghost heap
     cell is born (the KV proof allocates one per key at init). *)
  let m = Fm.of_list [ (0, Ex.ex 1); (1, Ex.ex 2) ] in
  let m' = Fm.add 7 (Ex.ex 5) m in
  Alcotest.(check bool) "alloc at fresh key ok" true
    (F.ok1 ~frames:auth_frames (Au.auth m) (Au.both m' (Fm.singleton 7 (Ex.ex 5))));
  (* At an occupied key the update is not frame-preserving: whoever holds
     that cell's fragment is the witness. *)
  let clash = Au.both (Fm.add 1 (Ex.ex 5) m) (Fm.singleton 1 (Ex.ex 5)) in
  Alcotest.(check bool) "alloc at occupied key rejected" false
    (F.ok1 ~frames:auth_frames (Au.auth m) clash);
  match F.counterexample ~frames:auth_frames (Au.auth m) [ clash ] with
  | Some f ->
    Alcotest.(check bool) "witness holds key 1" true (Fm.find 1 (Au.get_frag f) <> None)
  | None -> Alcotest.fail "expected counterexample"

let test_fpu_auth_update_pointwise () =
  let module F = Ra.Fpu.Make (Au) in
  (* The KV put: holding a cell's fragment, update authority and fragment
     together; every other key's fragment keeps composing. *)
  let m = Fm.of_list [ (0, Ex.ex 1); (1, Ex.ex 2) ] in
  let pre = Au.both m (Fm.singleton 0 (Ex.ex 1)) in
  let post = Au.both (Fm.add 0 (Ex.ex 9) m) (Fm.singleton 0 (Ex.ex 9)) in
  Alcotest.(check bool) "pointwise update ok" true (F.ok1 ~frames:auth_frames pre post);
  (* Updating a key whose fragment some other thread holds is rejected. *)
  let bad = Au.both (Fm.add 1 (Ex.ex 9) m) (Fm.singleton 0 (Ex.ex 1)) in
  Alcotest.(check bool) "updating an unowned key rejected" false
    (F.ok1 ~frames:auth_frames pre bad)

let test_fpu_auth_dealloc () =
  let module F = Ra.Fpu.Make (Au) in
  (* Deallocation: ●m ⋅ ◯{k↦v} ⇝ ●(m − k) — the authority may drop a cell
     it has reclaimed the fragment for, and only then. *)
  let m = Fm.of_list [ (0, Ex.ex 1); (1, Ex.ex 2) ] in
  Alcotest.(check bool) "dealloc owned key ok" true
    (F.ok1 ~frames:auth_frames
       (Au.both m (Fm.singleton 1 (Ex.ex 2)))
       (Au.auth (Fm.remove 1 m)));
  Alcotest.(check bool) "dealloc without fragment rejected" false
    (F.ok1 ~frames:auth_frames (Au.auth m) (Au.auth (Fm.remove 1 m)))

(* --- qcheck properties over randomly generated elements --- *)

let arb_lease =
  let gen =
    QCheck.Gen.(
      let tok =
        oneof
          [ map2 (fun n v -> Ls.master n v) (int_bound 3) (oneofl [ "a"; "b" ]);
            map2 (fun n v -> Ls.lease n v) (int_bound 3) (oneofl [ "a"; "b" ]);
            return Ls.unit ]
      in
      map (fun ts -> List.fold_left Ls.op Ls.unit ts) (list_size (int_bound 3) tok))
  in
  QCheck.make ~print:(Fmt.to_to_string Ls.pp) gen

let prop_lease_assoc =
  QCheck.Test.make ~name:"lease op associative" ~count:300
    QCheck.(triple arb_lease arb_lease arb_lease) (fun (a, b, c) ->
      Ls.equal (Ls.op a (Ls.op b c)) (Ls.op (Ls.op a b) c))

let prop_lease_comm =
  QCheck.Test.make ~name:"lease op commutative" ~count:300
    QCheck.(pair arb_lease arb_lease) (fun (a, b) -> Ls.equal (Ls.op a b) (Ls.op b a))

let prop_lease_valid_mono =
  QCheck.Test.make ~name:"lease validity down-closed" ~count:300
    QCheck.(pair arb_lease arb_lease) (fun (a, b) ->
      (not (Ls.valid (Ls.op a b))) || Ls.valid a)

let gen_fm =
  QCheck.Gen.(
    let cell = map2 (fun k v -> (k, Ex.ex v)) (int_bound 3) (int_bound 2) in
    map
      (fun cs -> List.fold_left (fun m (k, v) -> Fm.op m (Fm.singleton k v)) Fm.unit cs)
      (list_size (int_bound 4) cell))

let arb_fm = QCheck.make ~print:(Fmt.to_to_string Fm.pp) gen_fm

let arb_auth =
  QCheck.make
    ~print:(Fmt.to_to_string Au.pp)
    QCheck.Gen.(
      oneof
        [ map Au.auth gen_fm; map Au.frag gen_fm;
          map2 (fun a f -> Au.op (Au.auth a) (Au.frag f)) gen_fm gen_fm ])

let prop_fm_assoc =
  QCheck.Test.make ~name:"finmap op associative" ~count:300
    QCheck.(triple arb_fm arb_fm arb_fm) (fun (a, b, c) ->
      Fm.equal (Fm.op a (Fm.op b c)) (Fm.op (Fm.op a b) c))

let prop_fm_comm =
  QCheck.Test.make ~name:"finmap op commutative" ~count:300
    QCheck.(pair arb_fm arb_fm) (fun (a, b) -> Fm.equal (Fm.op a b) (Fm.op b a))

let prop_auth_valid_mono =
  QCheck.Test.make ~name:"auth validity down-closed" ~count:300
    QCheck.(pair arb_auth arb_auth) (fun (a, b) ->
      (not (Au.valid (Au.op a b))) || Au.valid a)

let prop_auth_frag_incl =
  (* Any summand of a valid authority is an honest fragment of it. *)
  QCheck.Test.make ~name:"auth: summands are honest fragments" ~count:300
    QCheck.(pair arb_fm arb_fm) (fun (a, b) ->
      let m = Fm.op a b in
      (not (Fm.valid m)) || Au.valid (Au.op (Au.auth m) (Au.frag a)))

let prop_fpu_auth_alloc =
  let module F = Ra.Fpu.Make (Au) in
  QCheck.Test.make ~name:"auth alloc frame-preserving at fresh keys" ~count:200
    QCheck.(pair arb_fm (int_bound 2)) (fun (m, v) ->
      let k = 9 (* outside the generator's key range: always fresh *) in
      let frames =
        Au.frag Fm.unit :: Au.frag m
        :: List.map (fun (k', v') -> Au.frag (Fm.singleton k' v')) (Fm.to_list m)
      in
      (not (Fm.valid m))
      || F.ok1 ~frames (Au.auth m)
           (Au.both (Fm.add k (Ex.ex v) m) (Fm.singleton k (Ex.ex v))))

let arb_q =
  QCheck.make
    ~print:(Fmt.to_to_string Ra.Q.pp)
    QCheck.Gen.(map2 (fun n d -> Ra.Q.make n (d + 1)) (int_bound 20) (int_bound 20))

let prop_q_add_comm =
  QCheck.Test.make ~name:"Q.add commutative" ~count:200 QCheck.(pair arb_q arb_q)
    (fun (a, b) -> Ra.Q.equal (Ra.Q.add a b) (Ra.Q.add b a))

let prop_q_sub_add =
  QCheck.Test.make ~name:"Q.sub inverts add" ~count:200 QCheck.(pair arb_q arb_q)
    (fun (a, b) -> Ra.Q.equal (Ra.Q.sub (Ra.Q.add a b) b) a)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_lease_assoc; prop_lease_comm; prop_lease_valid_mono; prop_fm_assoc;
      prop_fm_comm; prop_auth_valid_mono; prop_auth_frag_incl; prop_fpu_auth_alloc;
      prop_q_add_comm; prop_q_sub_add ]

let suite =
  [
    Alcotest.test_case "laws: all instances over samples" `Quick test_all_laws;
    Alcotest.test_case "unital laws" `Quick test_unital_laws;
    Alcotest.test_case "excl exclusivity" `Quick test_excl_exclusive;
    Alcotest.test_case "agree" `Quick test_agree;
    Alcotest.test_case "frac" `Quick test_frac;
    Alcotest.test_case "Q arithmetic" `Quick test_q_arith;
    Alcotest.test_case "max-nat" `Quick test_max_nat;
    Alcotest.test_case "auth inclusion" `Quick test_auth_inclusion;
    Alcotest.test_case "finmap disjointness" `Quick test_finmap_disjoint;
    Alcotest.test_case "lease exclusivity (§5.3)" `Quick test_lease_exclusivity;
    Alcotest.test_case "lease write rule (§5.3)" `Quick test_lease_write_rule;
    Alcotest.test_case "lease synthesis rule (§5.3)" `Quick test_lease_synthesis_rule;
    Alcotest.test_case "fpu: excl" `Quick test_fpu_excl;
    Alcotest.test_case "fpu: agree update rejected" `Quick test_fpu_agree_fails;
    Alcotest.test_case "fpu: lease write" `Quick test_fpu_lease_write;
    Alcotest.test_case "fpu: lease synthesis" `Quick test_fpu_lease_synthesis;
    Alcotest.test_case "fpu: auth update" `Quick test_fpu_auth_update;
    Alcotest.test_case "fpu: auth alloc (ghost heap)" `Quick test_fpu_auth_alloc;
    Alcotest.test_case "fpu: auth pointwise update" `Quick test_fpu_auth_update_pointwise;
    Alcotest.test_case "fpu: auth dealloc" `Quick test_fpu_auth_dealloc;
  ]
  @ qcheck_tests
