module Time = M3v_sim.Time

type stats = { reads : int; writes : int; bytes_read : int; bytes_written : int }

(* The store is paged: [page_size]-byte pages, each allocated on its first
   write or non-zero fill.  An untouched page is a zero-length block and
   reads as zeros, so a 256 MiB memory tile costs only the pages a run
   writes — in the heap and in a checkpoint.  Untouched pages are
   recognised by length, never by identity: a Marshal round trip turns the
   shared empty sentinel into a fresh block. *)
let page_bits = 16
let page_size = 1 lsl page_bits
let page_mask = page_size - 1

type t = {
  size : int;
  pages : bytes array;
  access_latency_ps : int;
  ps_per_byte : int;
  mutable busy_until : Time.t;
  mutable reads : int;
  mutable writes : int;
  mutable bytes_read : int;
  mutable bytes_written : int;
}

(* Defaults model the FPGA's DDR4 interface: ~90 ns access latency and
   ~1 GB/s sustained per-stream bandwidth. *)
let create ~size ?(access_latency_ps = 90_000) ?(bytes_per_ns = 1) () =
  if size <= 0 then invalid_arg "Dram.create: size must be positive";
  {
    size;
    pages = Array.make ((size + page_mask) lsr page_bits) Bytes.empty;
    access_latency_ps;
    ps_per_byte = 1_000 / bytes_per_ns;
    busy_until = Time.zero;
    reads = 0;
    writes = 0;
    bytes_read = 0;
    bytes_written = 0;
  }

let size t = t.size

let check t ~off ~len =
  if off < 0 || len < 0 || off + len > t.size then
    invalid_arg
      (Printf.sprintf "Dram: access [%#x, %#x) outside store of %#x bytes" off
         (off + len) t.size)

(* The caller's side of a copy, checked as [Bytes.blit] checks it. *)
let check_buf buf pos len =
  if pos < 0 || pos > Bytes.length buf - len then invalid_arg "Bytes.blit"

let page t i =
  let p = t.pages.(i) in
  if Bytes.length p > 0 then p
  else begin
    let p = Bytes.make page_size '\000' in
    t.pages.(i) <- p;
    p
  end

(* The chunk of [len] bytes at [off] that stays within one page. *)
let chunk off len =
  let room = page_size - (off land page_mask) in
  if len < room then len else room

let rec copy_out t off dst dst_off len =
  if len > 0 then begin
    let n = chunk off len in
    let p = t.pages.(off lsr page_bits) in
    if Bytes.length p = 0 then Bytes.fill dst dst_off n '\000'
    else Bytes.blit p (off land page_mask) dst dst_off n;
    copy_out t (off + n) dst (dst_off + n) (len - n)
  end

let rec copy_in t off src src_off len =
  if len > 0 then begin
    let n = chunk off len in
    Bytes.blit src src_off (page t (off lsr page_bits)) (off land page_mask) n;
    copy_in t (off + n) src (src_off + n) (len - n)
  end

let rec fill_pages t off len c =
  if len > 0 then begin
    let n = chunk off len in
    let i = off lsr page_bits in
    if c <> '\000' || Bytes.length t.pages.(i) > 0 then
      Bytes.fill (page t i) (off land page_mask) n c;
    fill_pages t (off + n) (len - n) c
  end

let note_read t len =
  t.reads <- t.reads + 1;
  t.bytes_read <- t.bytes_read + len

let note_write t len =
  t.writes <- t.writes + 1;
  t.bytes_written <- t.bytes_written + len

let read t ~off ~len =
  check t ~off ~len;
  note_read t len;
  let dst = Bytes.create len in
  copy_out t off dst 0 len;
  dst

let read_into t ~off ~dst ~dst_off ~len =
  check t ~off ~len;
  note_read t len;
  check_buf dst dst_off len;
  copy_out t off dst dst_off len

let write t ~off ~src ~src_off ~len =
  check t ~off ~len;
  note_write t len;
  check_buf src src_off len;
  copy_in t off src src_off len

let fill t ~off ~len c =
  check t ~off ~len;
  note_write t len;
  fill_pages t off len c

let access_time t ~now ~bytes =
  let start = Time.max now t.busy_until in
  let duration = t.access_latency_ps + (bytes * t.ps_per_byte) in
  t.busy_until <- Time.add start duration;
  Time.add start duration

let stats t =
  {
    reads = t.reads;
    writes = t.writes;
    bytes_read = t.bytes_read;
    bytes_written = t.bytes_written;
  }
