(** The cost model mapping mail-server requests onto simulator actions —
    the Figure 11 experiment (§9.3).

    Calibration targets are the paper's qualitative claims, not its absolute
    numbers (our substrate is a simulator, not their 2×6-core Xeon):
    - Mailboat ≈ 1.81× GoMail at one core (in-memory locks + relative
      lookups vs file locks + absolute lookups);
    - GoMail ≈ 1.34× CMAIL at one core (Go vs extracted Haskell);
    - all three scale sublinearly, flattening towards 12 cores (tmpfs
      parallelism limited by kernel-side serialization and runtime GC).

    Constants below are microseconds; they were chosen so that single-core
    Mailboat throughput lands in the paper's ~30-35 krps ballpark. *)

type profile = {
  server : Mailboat.Server.kind;
  cpu_mult : float;  (** execution-engine overhead (extracted Haskell) *)
  fs_cpu : float;  (** parallel part of one file-system call *)
  fs_serial : float;  (** serialized part of one file-system call *)
  fs_lookup_extra : float;  (** extra per-call path-resolution cost
                                (absolute lookups; Mailboat caches the
                                directory fd and resolves relative) *)
  proto_cpu : float;  (** SMTP/POP3 parsing + session bookkeeping *)
  mem_lock_cpu : float;  (** in-memory mutex cost *)
  file_lock_fs_ops : int;  (** fs calls per file-lock acquire+release *)
}

let vfs = "vfs"

let mailboat_profile =
  {
    server = Mailboat.Server.Mailboat_server;
    cpu_mult = 1.0;
    fs_cpu = 2.6;
    fs_serial = 0.9;
    fs_lookup_extra = 0.0;
    proto_cpu = 12.0;
    mem_lock_cpu = 0.08;
    file_lock_fs_ops = 0;
  }

let gomail_profile =
  {
    mailboat_profile with
    server = Mailboat.Server.Gomail;
    fs_lookup_extra = 1.6;
    file_lock_fs_ops = 4;
  }

(* The CPU multiplier is calibrated so the *end-to-end* single-core gap
   between GoMail and CMAIL lands at the paper's 34% (the serialized
   kernel-side slices are not subject to the extraction overhead, so the
   raw multiplier must be a little higher). *)
let cmail_profile =
  { gomail_profile with server = Mailboat.Server.Cmail; cpu_mult = 1.42 }

let profile_of = function
  | Mailboat.Server.Mailboat_server -> mailboat_profile
  | Mailboat.Server.Gomail -> gomail_profile
  | Mailboat.Server.Cmail -> cmail_profile

(* --- building actions --- *)

let fs_call p = [ Sim.Cpu ((p.fs_cpu +. p.fs_lookup_extra) *. p.cpu_mult); Sim.Serial (vfs, p.fs_serial) ]

let fs_calls p n = List.concat (List.init n (fun _ -> fs_call p))

let lock_user p u =
  match p.file_lock_fs_ops with
  | 0 -> [ Sim.Cpu (p.mem_lock_cpu *. p.cpu_mult); Sim.Lock u ]
  | n -> fs_calls p n @ [ Sim.Lock u ] (* open+create+close the lock file *)

let unlock_user p u =
  match p.file_lock_fs_ops with
  | 0 -> [ Sim.Cpu (p.mem_lock_cpu *. p.cpu_mult); Sim.Unlock u ]
  | _ -> fs_calls p 2 @ [ Sim.Unlock u ] (* delete + close the lock file *)

(** Deliver: create temp, one 1 KB append, close, link, delete temp —
    lock-free (§8.2). *)
let deliver_actions p =
  (Sim.Cpu (p.proto_cpu *. p.cpu_mult) :: fs_calls p 5)

(** POP3 session for a mailbox currently holding [msgs] messages: lock,
    list, per message open+read+close and a delete, unlock. *)
let pickup_actions p ~msgs u =
  [ Sim.Cpu (p.proto_cpu *. p.cpu_mult) ]
  @ lock_user p u
  @ fs_calls p 1 (* list *)
  @ fs_calls p (4 * msgs) (* open + read + close + delete per message *)
  @ unlock_user p u

(** Expand a §9.3 workload into per-request action lists, tracking mailbox
    sizes (a pickup session reads whatever has been delivered so far and
    empties the mailbox). *)
let compile ~kind (reqs : Mailboat.Workload.request list) : Sim.action list array =
  let p = profile_of kind in
  let mailbox = Hashtbl.create 128 in
  let count u = match Hashtbl.find_opt mailbox u with Some n -> n | None -> 0 in
  List.map
    (fun (r : Mailboat.Workload.request) ->
      match r with
      | Mailboat.Workload.Smtp_deliver { user; _ } ->
        Hashtbl.replace mailbox user (count user + 1);
        deliver_actions p
      | Mailboat.Workload.Pop3_session { user } ->
        let msgs = count user in
        Hashtbl.replace mailbox user 0;
        pickup_actions p ~msgs user)
    reqs
  |> Array.of_list

(* --- the Figure 11 sweep --- *)

(** Reproduce Figure 11: throughput of the three servers as the core count
    varies, on the standard workload (equal deliver/pickup mix, 100 users,
    fixed total requests). *)
let figure11 ?(requests = 30_000) () =
  let reqs = Mailboat.Workload.generate ~seed:42 ~users:100 ~n:requests in
  Sim.sweep
    (List.map
       (fun kind -> (kind, compile ~kind reqs))
       [ Mailboat.Server.Mailboat_server; Mailboat.Server.Gomail; Mailboat.Server.Cmail ])
