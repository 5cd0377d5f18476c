(** Small statistics helpers for benchmark results. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
}

(** Summarize a sample.  Raises [Invalid_argument] on an empty list. *)
val summarize : float list -> summary

val mean : float list -> float
val stddev : float list -> float

(** [percentile p xs] with [p] in [0, 100], linear interpolation. *)
val percentile : float -> float list -> float

(** A constant-memory log-linear histogram (HDR style) for latency
    distributions.  Values are bucketed by power of two with 64 linear
    sub-buckets, so quantiles carry a bounded relative error (< ~1.6%)
    while [add] stays O(1) — cheap enough for per-event recording in the
    tracing layer.  Negative values are clamped to zero. *)
module Histogram : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val add_int : t -> int -> unit
  val count : t -> int
  val total : t -> float
  val mean : t -> float
  val min_value : t -> float
  val max_value : t -> float

  (** [quantile t q] with [q] in [0, 1]. *)
  val quantile : t -> float -> float

  (** [percentile t p] with [p] in [0, 100]. *)
  val percentile : t -> float -> float

  val merge : into:t -> t -> unit
  val reset : t -> unit
  val pp : Format.formatter -> t -> unit
end

(** An accumulating counter keyed by string: the snapshot type that
    [Runtime.counters] hands out. *)
module Counter : sig
  type t

  val create : unit -> t
  val add : t -> string -> float -> unit
  val get : t -> string -> float
  val to_list : t -> (string * float) list
end
