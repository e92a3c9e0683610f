(** Hash-consed state fingerprints for the exhaustive checker.

    A fingerprint is a canonical rendering of everything that determines the
    {e future} of a naive-exploration node: the implementation world, the
    live linearization candidate set, the phase bookkeeping (crash budget
    used, fused fault mask, fault-site counter), and each live thread's
    continuation identity — an opaque class string (the checker passes a
    content digest of the thread's serialized continuation) plus an
    optional observation history.  Two nodes with
    equal fingerprints have identical subtrees, so the second one reached
    (along a different interleaving or fault schedule) can be pruned.
    {!Refinement.check}'s [~fingerprint] mode does exactly that; the
    soundness argument lives in DESIGN.md §S21.

    Renderings are kept as full strings and hash-consed in a global,
    sharded, mutex-protected intern table — so equality is exact string
    equality (no hash-collision unsoundness) while the per-node cost after
    interning is one int comparison.  Nothing here feeds [Hashtbl.hash] a
    boxed value whose identity could leak: digests are pure functions of
    the rendered content, stable across runs and domain counts.

    {b Process-local only.}  The continuation classes the checker feeds in
    ({!thr.f_class}) are MD5 digests of [Marshal]-serialized closures
    ([Marshal.Closures]): deterministic for structurally identical
    continuations {e within one process} — that determinism is pinned by
    the regression test in [test/test_wal.ml] — but the serialization
    embeds code pointers, so the digests are NOT comparable across
    processes or across builds of the binary.  Never persist fingerprints
    (or [id]s, or [key]s containing class digests) and reuse them in
    another process; the intern table and every digest must be recomputed
    per process.

    Symmetry reduction ([~symmetry]) additionally canonicalizes
    interchangeable thread ids (and, with [~key_prefix], renamable resource
    tokens such as KVS keys) before interning: threads are grouped by
    (class, history) and the canonical form is the lexicographic minimum of
    the rendering over all within-group permutations.  That quotient is
    sound only when the grouped threads are genuinely interchangeable —
    see the DESIGN.md note for the obligations the caller signs up for. *)

type pend = {
  f_ptid : int;  (** thread id owning the pending operation *)
  f_op : string;
  f_args : string list;
  f_result : string option;  (** linearized-but-unreturned result, if any *)
}

type cand = { f_state : string; f_pend : pend list }
(** One linearization candidate: rendered spec state + pending set. *)

type thr = {
  f_tid : int;
  f_class : string;
      (** opaque continuation identity; {!Refinement} passes the MD5 of the
          thread's serialized (call, program, remaining ops) — equal classes
          mean structurally identical continuations.  Closure serialization
          makes this identity process-local: see the module header *)
  f_hist : string list;  (** optional observation history, newest first *)
}

type state = {
  f_world : string;  (** implementation world, rendered *)
  f_cands : cand list;
  f_phase : string;
  f_crashes : int;  (** crash budget already consumed *)
  f_fused : int;  (** fault budget already consumed *)
  f_fsite : int;  (** canonical fault-site counter on this path *)
  f_threads : thr list;  (** live threads, in tid order *)
}

val rename_tokens : prefix:string -> string -> string
(** [rename_tokens ~prefix s] renames every occurrence of [prefix]
    immediately followed by digits to [prefix]{i n} where {i n} counts
    distinct tokens in first-occurrence order.  Idempotent, and invariant
    under any permutation of the original token names — the key-symmetry
    canonicalizer. *)

val canonical : ?symmetry:bool -> ?key_prefix:string -> state -> string
(** Deterministic rendering of the state.  With [~symmetry:true], the
    lexicographic minimum over all permutations of threads within equal
    (class, history) groups, with pending-entry thread ids remapped
    accordingly and [rename_tokens] applied (when [key_prefix] is given)
    to each candidate rendering before taking the minimum. *)

type t
(** An interned fingerprint: a small id plus the full canonical string. *)

val digest : ?symmetry:bool -> state -> t * bool
(** Canonicalize and intern.  The boolean is [true] when the fingerprint
    was fresh (a miss: first time this canonical state is seen globally). *)

val intern : string -> t * bool
(** Intern an already-canonical string. *)

val id : t -> int
(** Dense intern id.  Stable within a run for a given string in sequential
    mode; under parallel exploration ids depend on interleaving (the
    {e string} is the portable identity — see {!key}). *)

val key : t -> string

val equal : t -> t -> bool
val compare : t -> t -> int

val table_size : unit -> int
(** Number of distinct fingerprints interned since the last {!reset}. *)

val reset : unit -> unit
(** Empty the global intern table (tests and per-check isolation). *)
