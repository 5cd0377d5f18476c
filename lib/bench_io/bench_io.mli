(** Machine-readable benchmark reports: the JSON written by
    [bench --json], read back by [bench --compare], and diffed by the CI
    perf-regression job.

    The format is deliberately tiny (flat metadata + one array of
    name/ns pairs) so this module can parse it with no JSON dependency;
    {!of_json} accepts anything {!to_json} emits, plus whitespace
    variations. *)

type result = {
  name : string;
  ns_per_run : float option;  (** [None] when the OLS fit failed *)
}

type report = {
  schema_version : int;
  git_sha : string;  (** ["unknown"] outside a git checkout *)
  timestamp : string;  (** ISO-8601 UTC, e.g. ["2026-08-07T12:00:00Z"] *)
  ocaml_version : string;
  hostname : string;
  jobs : int;
      (** Domain-pool size the bench ran with (schema >= 2; version-1
          reports parse as [1]) *)
  results : result list;
}

val schema_version : int

(** Generic JSON values, exposed so tests of the repo's other JSON
    emitters (Chrome traces, the metrics registry) can reuse this parser
    instead of growing their own. *)
type json =
  | J_null
  | J_bool of bool
  | J_num of float
  | J_str of string
  | J_arr of json list
  | J_obj of (string * json) list

exception Parse_error of string

(** [parse_json s] parses a complete JSON document (objects, arrays,
    strings with \-escapes, numbers, null, true/false); raises
    {!Parse_error} on malformed input or trailing garbage. *)
val parse_json : string -> json

(** Exception-free wrapper around {!parse_json}. *)
val json_of_string : string -> (json, string) Stdlib.result

val make :
  ?git_sha:string ->
  ?timestamp:string ->
  ?ocaml_version:string ->
  ?hostname:string ->
  ?jobs:int ->
  (string * float option) list ->
  report

val to_json : report -> string

(** Parse a report; [Error] carries a human-readable reason.  Unknown
    fields are ignored so the schema can grow. *)
val of_json : string -> (report, string) Stdlib.result

(** One row of a baseline-vs-current comparison. *)
type delta = {
  test : string;
  base_ns : float option;
  cur_ns : float option;
  pct : float option;
      (** (cur - base) / base * 100; [None] if either side is missing *)
}

type comparison = {
  deltas : delta list;  (** tests present in both reports, baseline order *)
  regressions : delta list;
      (** deltas with [pct > threshold], slowest first *)
  baseline_only : string list;  (** retired tests, skipped with a warning *)
  current_only : string list;  (** new tests, skipped with a warning *)
}

(** [compare ~threshold_pct ~baseline ~current] pairs up tests by name.
    Tests present in only one report are skipped — listed in
    [baseline_only]/[current_only] and printed as warnings by
    {!pp_comparison} — and never count as regressions (CI must not fail
    when a benchmark is added or retired). *)
val compare :
  threshold_pct:float -> baseline:report -> current:report -> comparison

(** Render the comparison as the report printed by [bench --compare]. *)
val pp_comparison :
  threshold_pct:float ->
  baseline:report ->
  current:report ->
  Format.formatter ->
  comparison ->
  unit
