(** Canonical state renderings for the exhaustive checker's fingerprint
    pruning.

    A fingerprint is a canonical string rendering everything that
    determines the {e future} of a naive-exploration node: the
    implementation world, the live linearization candidate set, the phase
    bookkeeping (crash budget used, fused fault mask, fault-site counter),
    and each live thread's continuation identity — an opaque class string
    (the checker passes a content digest of the thread's serialized
    continuation).  Two nodes with equal fingerprints have identical
    subtrees, so the second one reached (along a different interleaving or
    fault schedule) can be pruned.  {!Refinement.check}'s [~fingerprint]
    mode does exactly that, keeping the strings it has explored in a
    seen-set that lives as long as one check (one per work item under
    [~domains]); the soundness argument lives in DESIGN.md §S21.

    Fields are separated by ['\x1f'], so the rendering is injective and
    equality is exact string equality: no hash collision can prune a node.

    {b Process-local only.}  The continuation classes the checker feeds in
    ({!thr.f_class}) are MD5 digests of [Marshal]-serialized closures
    ([Marshal.Closures]): deterministic for structurally identical
    continuations {e within one process} — that determinism is pinned by
    the regression test in [test/test_wal.ml] — but the serialization
    embeds code pointers, so the digests are NOT comparable across
    processes or across builds of the binary.  Never persist a rendering
    that contains class digests and reuse it in another process.

    Symmetry reduction ([~symmetry]) additionally canonicalizes
    interchangeable thread ids: threads are grouped by class and the
    canonical form is the lexicographic minimum of the rendering over all
    within-group permutations.  That quotient is sound only when the
    grouped threads are genuinely interchangeable — see the DESIGN.md note
    for the obligations the caller signs up for. *)

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
}

type state = {
  f_world : string;  (** implementation world, rendered *)
  f_cands : cand list;
  f_crashes : int;  (** crash budget already consumed *)
  f_fused : int;  (** fault budget already consumed *)
  f_fsite : int;  (** canonical fault-site counter on this path *)
  f_threads : thr list;  (** live threads, in tid order *)
}

val canonical : ?symmetry:bool -> state -> string
(** Deterministic rendering of the state.  With [~symmetry:true], the
    lexicographic minimum over all permutations of threads within equal
    class groups, with pending-entry thread ids remapped accordingly. *)
