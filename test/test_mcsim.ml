(* Tests for the discrete-event multicore simulator and the Figure 11 cost
   model: engine invariants, contention behaviour, and the paper's shape
   claims. *)

module Sim = Mcsim.Sim
module M = Mcsim.Mail_model

let rps ~cores reqs = Sim.throughput (Sim.run ~cores reqs)

(* --- engine --- *)

let test_pure_cpu_scales_linearly () =
  (* CPU-only requests, GC disabled by a huge quantum: perfect scaling *)
  let reqs = Array.make 1000 [ Sim.Cpu 10. ] in
  let t1 = Sim.throughput (Sim.run ~gc_quantum:1e9 ~gc_slice:0. ~cores:1 reqs) in
  let t4 = Sim.throughput (Sim.run ~gc_quantum:1e9 ~gc_slice:0. ~cores:4 reqs) in
  Alcotest.(check bool)
    (Printf.sprintf "4 cores ~4x (%.0f vs %.0f)" t4 t1)
    true
    (t4 /. t1 > 3.7 && t4 /. t1 < 4.3)

let test_serial_resource_caps_throughput () =
  (* requests that are almost entirely serialized cannot scale *)
  let reqs = Array.make 1000 [ Sim.Serial ("r", 10.) ] in
  let t1 = Sim.throughput (Sim.run ~gc_quantum:1e9 ~gc_slice:0. ~cores:1 reqs) in
  let t8 = Sim.throughput (Sim.run ~gc_quantum:1e9 ~gc_slice:0. ~cores:8 reqs) in
  Alcotest.(check bool)
    (Printf.sprintf "8 cores no faster (%.0f vs %.0f)" t8 t1)
    true
    (t8 /. t1 < 1.15)

let test_single_core_time_is_sum () =
  let reqs = Array.make 100 [ Sim.Cpu 5.; Sim.Serial ("r", 5.) ] in
  let out = Sim.run ~gc_quantum:1e9 ~gc_slice:0. ~cores:1 reqs in
  (* 100 requests x 10us = 1000us *)
  Alcotest.(check bool)
    (Printf.sprintf "makespan %.0f ~ 1000" out.Sim.makespan_us)
    true
    (out.Sim.makespan_us > 995. && out.Sim.makespan_us < 1005.)

let test_locks_serialize_holders () =
  (* all requests fight over one lock held for the whole request *)
  let reqs = Array.make 500 [ Sim.Lock 0; Sim.Cpu 10.; Sim.Unlock 0 ] in
  let t1 = Sim.throughput (Sim.run ~gc_quantum:1e9 ~gc_slice:0. ~cores:1 reqs) in
  let t6 = Sim.throughput (Sim.run ~gc_quantum:1e9 ~gc_slice:0. ~cores:6 reqs) in
  Alcotest.(check bool) "lock-bound" true (t6 /. t1 < 1.2)

let test_disjoint_locks_scale () =
  (* requests on distinct locks do scale *)
  let reqs =
    Array.init 600 (fun i -> [ Sim.Lock (i mod 100); Sim.Cpu 10.; Sim.Unlock (i mod 100) ])
  in
  let t1 = Sim.throughput (Sim.run ~gc_quantum:1e9 ~gc_slice:0. ~cores:1 reqs) in
  let t4 = Sim.throughput (Sim.run ~gc_quantum:1e9 ~gc_slice:0. ~cores:4 reqs) in
  Alcotest.(check bool) "scales" true (t4 /. t1 > 3.0)

let test_all_requests_complete () =
  let reqs = Array.init 777 (fun i -> [ Sim.Cpu (float_of_int (1 + (i mod 7))) ]) in
  let out = Sim.run ~cores:5 reqs in
  Alcotest.(check int) "total" 777 out.Sim.total;
  Alcotest.(check int) "per-core sums" 777 (Array.fold_left ( + ) 0 out.Sim.per_core_completed)

let test_gc_degrades_scaling () =
  let reqs = Array.make 2000 [ Sim.Cpu 10. ] in
  let without = Sim.throughput (Sim.run ~gc_quantum:1e9 ~gc_slice:0. ~cores:8 reqs) in
  let with_gc = Sim.throughput (Sim.run ~gc_quantum:50. ~gc_slice:10. ~cores:8 reqs) in
  Alcotest.(check bool) "gc hurts" true (with_gc < without *. 0.8)

let test_determinism () =
  let reqs = Array.make 300 [ Sim.Cpu 3.; Sim.Serial ("v", 1.); Sim.Lock 1; Sim.Unlock 1 ] in
  let a = Sim.run ~cores:3 reqs and b = Sim.run ~cores:3 reqs in
  Alcotest.(check bool) "same makespan" true (a.Sim.makespan_us = b.Sim.makespan_us)

(* --- the Figure 11 model --- *)

let fig11 = lazy (M.figure11 ~requests:10_000 ())

let series kind = List.find (fun (s : _ Sim.series) -> s.label = kind) (Lazy.force fig11)

let test_fig11_single_core_ratios () =
  let mb = Sim.throughput_at (series Mailboat.Server.Mailboat_server) 1 in
  let gm = Sim.throughput_at (series Mailboat.Server.Gomail) 1 in
  let cm = Sim.throughput_at (series Mailboat.Server.Cmail) 1 in
  let r1 = mb /. gm and r2 = gm /. cm in
  Alcotest.(check bool)
    (Printf.sprintf "Mailboat/GoMail %.2f in [1.6,2.0]" r1)
    true (r1 > 1.6 && r1 < 2.0);
  Alcotest.(check bool)
    (Printf.sprintf "GoMail/CMAIL %.2f in [1.2,1.5]" r2)
    true (r2 > 1.2 && r2 < 1.5)

let test_fig11_ordering_everywhere () =
  let mb = series Mailboat.Server.Mailboat_server in
  let gm = series Mailboat.Server.Gomail in
  let cm = series Mailboat.Server.Cmail in
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Printf.sprintf "order at %d cores" c)
        true
        (Sim.throughput_at mb c > Sim.throughput_at gm c
        && Sim.throughput_at gm c > Sim.throughput_at cm c))
    (List.init 12 (fun i -> i + 1))

let test_fig11_monotone_and_sublinear () =
  let mb = series Mailboat.Server.Mailboat_server in
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Printf.sprintf "monotone at %d" c)
        true
        (Sim.throughput_at mb (c + 1) >= Sim.throughput_at mb c *. 0.99))
    (List.init 11 (fun i -> i + 1));
  let speedup = Sim.throughput_at mb 12 /. Sim.throughput_at mb 1 in
  Alcotest.(check bool)
    (Printf.sprintf "sublinear: %.1fx at 12 cores" speedup)
    true
    (speedup > 3. && speedup < 11.)

let test_fig11_mailbox_dynamics () =
  (* a pickup after more deliveries must cost more: compile a stream with a
     hot mailbox and check its pickup dominates a cold one *)
  let hot =
    M.compile ~kind:Mailboat.Server.Mailboat_server
      [ Mailboat.Workload.Smtp_deliver { user = 0; msg = "m" };
        Mailboat.Workload.Smtp_deliver { user = 0; msg = "m" };
        Mailboat.Workload.Smtp_deliver { user = 0; msg = "m" };
        Mailboat.Workload.Pop3_session { user = 0 } ]
  in
  let cold =
    M.compile ~kind:Mailboat.Server.Mailboat_server
      [ Mailboat.Workload.Pop3_session { user = 0 } ]
  in
  let actions_len l = List.length l in
  Alcotest.(check bool) "hot pickup longer" true
    (actions_len hot.(3) > actions_len cold.(0))

let suite =
  [
    Alcotest.test_case "cpu-only scales linearly" `Quick test_pure_cpu_scales_linearly;
    Alcotest.test_case "serial resource caps scaling" `Quick test_serial_resource_caps_throughput;
    Alcotest.test_case "single-core time is the sum" `Quick test_single_core_time_is_sum;
    Alcotest.test_case "contended lock serializes" `Quick test_locks_serialize_holders;
    Alcotest.test_case "disjoint locks scale" `Quick test_disjoint_locks_scale;
    Alcotest.test_case "all requests complete" `Quick test_all_requests_complete;
    Alcotest.test_case "gc degrades scaling" `Quick test_gc_degrades_scaling;
    Alcotest.test_case "deterministic" `Quick test_determinism;
    Alcotest.test_case "fig11: single-core ratios" `Quick test_fig11_single_core_ratios;
    Alcotest.test_case "fig11: ordering everywhere" `Quick test_fig11_ordering_everywhere;
    Alcotest.test_case "fig11: monotone + sublinear" `Quick test_fig11_monotone_and_sublinear;
    Alcotest.test_case "fig11: mailbox-size dynamics" `Quick test_fig11_mailbox_dynamics;
  ]
