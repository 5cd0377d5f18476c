open M3v_sim.Proc.Syntax
module Proc = M3v_sim.Proc
module A = M3v_mux.Act_api
module Vfs = M3v_os.Vfs
module Fs_proto = M3v_os.Fs_proto

module Smap = Map.Make (String)

type sstable = {
  ss_path : string;
  ss_index : (string * (int * int)) array;  (** key -> (entry offset, entry length), sorted *)
  ss_size : int;
}

type t = {
  vfs : Vfs.t;
  dir : string;
  memtable_limit : int;
  compact_threshold : int;
  mutable memtable : bytes Smap.t;
  mutable mem_bytes : int;
  mutable wal_fd : int;
  mutable wal_pos : int;
  mutable tables : sstable list;  (** newest first *)
  mutable next_table : int;
  mutable n_compactions : int;
  mutable io_buf : M3v_mux.Act_ops.buf option;  (** reused for all file IO *)
}

(* Cycles of CPU work per key comparison / per entry handled. *)
let cmp_cycles = 24
let entry_cycles = 90

(* leveldb-equivalent CPU work per operation on the 80 MHz core: block
   decode, CRC verification, comparator calls, iterator bookkeeping.
   These dominate the YCSB runtimes, as in the paper's measurements. *)
let put_cycles = 220_000
let get_cycles = 180_000
let scan_seek_cycles = 250_000 (* per-table iterator seek *)
let scan_item_cycles = 55_000

let sstable_count t = List.length t.tables
let compactions t = t.n_compactions

(* Entry encoding: klen:u16, vlen:u32, key bytes, value bytes. *)
let entry_len ~key ~value = 6 + String.length key + Bytes.length value

let encode_entry buf ~key ~value =
  let klen = String.length key and vlen = Bytes.length value in
  Buffer.add_uint16_le buf klen;
  Buffer.add_int32_le buf (Int32.of_int vlen);
  Buffer.add_string buf key;
  Buffer.add_bytes buf value

let decode_entry data off =
  let klen = Bytes.get_uint16_le data off in
  let vlen = Int32.to_int (Bytes.get_int32_le data (off + 2)) in
  let key = Bytes.sub_string data (off + 6) klen in
  let value = Bytes.sub data (off + 6 + klen) vlen in
  (key, value, 6 + klen + vlen)

let wal_path dir = dir ^ "/wal"
let table_path dir n = Printf.sprintf "%s/sst-%04d" dir n

let create ~vfs ~dir ?(memtable_limit = 16 * 1024) ?(compact_threshold = 4) () =
  let* _ = vfs.Vfs.mkdir dir in
  let* wal = vfs.Vfs.open_ (wal_path dir) Fs_proto.wronly in
  match wal with
  | Error e -> Proc.return (Error e)
  | Ok wal_fd ->
      Proc.return
        (Ok
           {
             vfs;
             dir;
             memtable_limit;
             compact_threshold;
             memtable = Smap.empty;
             mem_bytes = 0;
             wal_fd;
             wal_pos = 0;
             tables = [];
             next_table = 0;
             n_compactions = 0;
             io_buf = None;
           })

(* The store's single reused IO buffer (real code does not allocate a
   fresh buffer per operation; neither may we, or the pager pool drains). *)
let io_buf t =
  match t.io_buf with
  | Some buf -> Proc.return buf
  | None ->
      let* buf = A.alloc_buf 4096 in
      t.io_buf <- Some buf;
      Proc.return buf

(* Write a bytes blob through the vfs in page-sized chunks. *)
let write_blob t fd data =
  let* buf = io_buf t in
  let len = Bytes.length data in
  let rec loop off =
    if off >= len then Proc.return ()
    else begin
      let n = min 4096 (len - off) in
      Bytes.blit data off buf.M3v_mux.Act_ops.data 0 n;
      let* written = t.vfs.Vfs.write fd buf n in
      if written <> n then failwith "kvstore: short write";
      loop (off + n)
    end
  in
  loop 0

let read_blob t fd ~off ~len =
  let* () = t.vfs.Vfs.seek fd off in
  let* buf = io_buf t in
  let out = Bytes.create len in
  let rec loop pos =
    if pos >= len then Proc.return out
    else begin
      let n = min 4096 (len - pos) in
      let* got = t.vfs.Vfs.read fd buf n in
      if got = 0 then failwith "kvstore: unexpected EOF";
      Bytes.blit buf.M3v_mux.Act_ops.data 0 out pos got;
      loop (pos + got)
    end
  in
  loop 0

(* Serialize the memtable into an SSTable file. *)
let flush t =
  if Smap.is_empty t.memtable then Proc.return ()
  else begin
    let buf = Buffer.create (t.mem_bytes + 1024) in
    let index = ref [] in
    Smap.iter
      (fun key value ->
        index := (key, (Buffer.length buf, entry_len ~key ~value)) :: !index;
        encode_entry buf ~key ~value)
      t.memtable;
    let data = Buffer.to_bytes buf in
    let entries = Smap.cardinal t.memtable in
    let* () = A.compute (entries * entry_cycles) in
    let path = table_path t.dir t.next_table in
    t.next_table <- t.next_table + 1;
    let* fd = t.vfs.Vfs.open_ path Fs_proto.wronly in
    let fd = match fd with Ok fd -> fd | Error e -> failwith e in
    let* () = write_blob t fd data in
    let* () = t.vfs.Vfs.close fd in
    let table =
      {
        ss_path = path;
        ss_index = Array.of_list (List.rev !index);
        ss_size = Bytes.length data;
      }
    in
    t.tables <- table :: t.tables;
    t.memtable <- Smap.empty;
    t.mem_bytes <- 0;
    (* Truncate the WAL: its entries are now durable in the table. *)
    let* wal = t.vfs.Vfs.open_ (wal_path t.dir) Fs_proto.wronly in
    (match wal with Ok fd -> t.wal_fd <- fd | Error e -> failwith e);
    t.wal_pos <- 0;
    Proc.return ()
  end

(* Binary search in a table index; returns (offset, length) of the entry. *)
let index_lookup t (table : sstable) key =
  let n = Array.length table.ss_index in
  let steps = ref 0 in
  let rec search lo hi =
    if lo >= hi then None
    else begin
      incr steps;
      let mid = (lo + hi) / 2 in
      let mk, loc = table.ss_index.(mid) in
      if mk = key then Some loc
      else if mk < key then search (mid + 1) hi
      else search lo mid
    end
  in
  let result = search 0 n in
  let* () = A.compute (!steps * cmp_cycles) in
  ignore t;
  Proc.return result

let compact t =
  t.n_compactions <- t.n_compactions + 1;
  (* Read every table oldest-first so newer values win, merge, rewrite. *)
  let merged = ref Smap.empty in
  let* () =
    Proc.iter_list
      (fun table ->
        let* fd = t.vfs.Vfs.open_ table.ss_path Fs_proto.rdonly in
        let fd = match fd with Ok fd -> fd | Error e -> failwith e in
        let* data = read_blob t fd ~off:0 ~len:table.ss_size in
        let* () = t.vfs.Vfs.close fd in
        let* _ = t.vfs.Vfs.unlink table.ss_path in
        let rec decode off =
          if off >= Bytes.length data then ()
          else begin
            let key, value, step = decode_entry data off in
            merged := Smap.add key value !merged;
            decode (off + step)
          end
        in
        decode 0;
        A.compute (Array.length table.ss_index * entry_cycles))
      (List.rev t.tables)
  in
  t.tables <- [];
  let buf = Buffer.create 4096 in
  let index = ref [] in
  Smap.iter
    (fun key value ->
      index := (key, (Buffer.length buf, entry_len ~key ~value)) :: !index;
      encode_entry buf ~key ~value)
    !merged;
  let data = Buffer.to_bytes buf in
  let path = table_path t.dir t.next_table in
  t.next_table <- t.next_table + 1;
  let* fd = t.vfs.Vfs.open_ path Fs_proto.wronly in
  let fd = match fd with Ok fd -> fd | Error e -> failwith e in
  let* () = write_blob t fd data in
  let* () = t.vfs.Vfs.close fd in
  t.tables <-
    [ { ss_path = path; ss_index = Array.of_list (List.rev !index);
        ss_size = Bytes.length data } ];
  Proc.return ()

let put t ~key ~value =
  let* () = A.compute put_cycles in
  (* WAL append first. *)
  let buf = Buffer.create 64 in
  encode_entry buf ~key ~value;
  let record = Buffer.to_bytes buf in
  let* () = t.vfs.Vfs.seek t.wal_fd t.wal_pos in
  let* wbuf = io_buf t in
  let n = min (Bytes.length record) 4096 in
  Bytes.blit record 0 wbuf.M3v_mux.Act_ops.data 0 n;
  let* _ = t.vfs.Vfs.write t.wal_fd wbuf n in
  t.wal_pos <- t.wal_pos + n;
  let* () = A.compute entry_cycles in
  (if not (Smap.mem key t.memtable) then
     t.mem_bytes <- t.mem_bytes + entry_len ~key ~value);
  t.memtable <- Smap.add key value t.memtable;
  if t.mem_bytes > t.memtable_limit then
    let* () = flush t in
    if List.length t.tables > t.compact_threshold then compact t
    else Proc.return ()
  else Proc.return ()

let get t ~key =
  let* () = A.compute get_cycles in
  match Smap.find_opt key t.memtable with
  | Some v -> Proc.return (Some v)
  | None ->
      let rec search = function
        | [] -> Proc.return None
        | table :: rest -> (
            let* loc = index_lookup t table key in
            match loc with
            | None -> search rest
            | Some (off, len) ->
                let* fd = t.vfs.Vfs.open_ table.ss_path Fs_proto.rdonly in
                let fd = match fd with Ok fd -> fd | Error e -> failwith e in
                let* data = read_blob t fd ~off ~len in
                let* () = t.vfs.Vfs.close fd in
                let _, value, _ = decode_entry data 0 in
                Proc.return (Some value))
      in
      search t.tables

let scan t ~start ~count =
  (* Collect candidates from the memtable. *)
  let mem_part =
    Smap.to_seq_from start t.memtable |> Seq.map (fun (k, v) -> (k, v))
    |> List.of_seq
  in
  (* From each table: walk the index from the first key >= start and read
     the covered file range (the expensive part). *)
  let* table_parts =
    Proc.fold_list
      (fun acc table ->
        let idx = table.ss_index in
        let n = Array.length idx in
        let rec first lo hi =
          if lo >= hi then lo
          else
            let mid = (lo + hi) / 2 in
            if fst idx.(mid) < start then first (mid + 1) hi else first lo mid
        in
        let lo = first 0 n in
        let hi = min n (lo + count) in
        if lo >= hi then Proc.return acc
        else begin
          (* Iterate entry by entry, as leveldb's table iterator does:
             every visited entry costs a block access and decode work. *)
          let* () = A.compute scan_seek_cycles in
          let* fd = t.vfs.Vfs.open_ table.ss_path Fs_proto.rdonly in
          let fd = match fd with Ok fd -> fd | Error e -> failwith e in
          let entries = ref [] in
          let* () =
            Proc.repeat (hi - lo) (fun j ->
                let off, len = snd idx.(lo + j) in
                let* data = read_blob t fd ~off ~len in
                let key, value, _ = decode_entry data 0 in
                entries := (key, value) :: !entries;
                A.compute scan_item_cycles)
          in
          let* () = t.vfs.Vfs.close fd in
          Proc.return (List.rev_append !entries acc)
        end)
      [] t.tables
  in
  (* Merge: newest (memtable, then newer tables already first in the
     accumulated list order) wins. *)
  let merged =
    List.fold_left
      (fun acc (k, v) -> if Smap.mem k acc then acc else Smap.add k v acc)
      Smap.empty
      (mem_part @ List.rev table_parts)
  in
  let* () =
    A.compute (cmp_cycles * (List.length table_parts + List.length mem_part))
  in
  let result =
    Smap.to_seq_from start merged |> List.of_seq
    |> List.filteri (fun i _ -> i < count)
  in
  Proc.return result
