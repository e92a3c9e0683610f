(** The cost model mapping mail-server requests onto simulator actions —
    the Figure 11 experiment (§9.3).

    Calibration targets are the paper's qualitative claims (the constants
    live in the implementation, documented in place):
    - Mailboat ≈ 1.81× GoMail at one core;
    - GoMail ≈ 1.34× CMAIL at one core;
    - all three scale sublinearly, Mailboat > GoMail > CMAIL throughout. *)

type profile = {
  server : Mailboat.Server.kind;
  cpu_mult : float;  (** execution-engine overhead (extracted Haskell) *)
  fs_cpu : float;  (** parallel part of one file-system call, μs *)
  fs_serial : float;  (** serialized part of one file-system call, μs *)
  fs_lookup_extra : float;  (** absolute-lookup penalty per call, μs *)
  proto_cpu : float;  (** SMTP/POP3 parsing + session bookkeeping, μs *)
  mem_lock_cpu : float;  (** in-memory mutex cost, μs *)
  file_lock_fs_ops : int;  (** fs calls to acquire a file lock *)
}

val mailboat_profile : profile
val gomail_profile : profile
val cmail_profile : profile
val profile_of : Mailboat.Server.kind -> profile

val compile : kind:Mailboat.Server.kind -> Mailboat.Workload.request list -> Sim.action list array
(** Expand a §9.3 workload into per-request action lists, tracking mailbox
    sizes (a pickup session reads whatever has been delivered so far). *)

val figure11 : ?requests:int -> unit -> Mailboat.Server.kind Sim.series list
(** Reproduce Figure 11: throughput of the three servers as the core count
    varies, on the standard workload. *)
