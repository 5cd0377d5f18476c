(** Monotonic wall clock (CLOCK_MONOTONIC, nanoseconds).

    The one sanctioned source of wall time for measurements: immune to
    clock steps, so elapsed times are nonnegative by construction.
    Values are nanoseconds since an unspecified epoch — only
    differences mean anything.  Keep [Unix.gettimeofday] for calendar
    timestamps in report headers, nothing else.

    Wall-clock readings must never enter simulated state or experiment
    output: they vary run to run and would break the byte-identity
    contracts.  perfbench reports wall time outside experiment stdout. *)

type ns = int64

val now_ns : unit -> ns
(** Current monotonic reading, in nanoseconds. *)

val elapsed_ns : since:ns -> ns
(** Nanoseconds elapsed since an earlier {!now_ns} reading. *)

val elapsed_s : since:ns -> float
(** Seconds elapsed since an earlier {!now_ns} reading. *)
