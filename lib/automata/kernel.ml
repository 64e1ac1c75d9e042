(* The integer automata kernel: the one subset construction and the one
   Hopcroft minimisation of the repository, over dense letter ids.

   Every automaton pipeline ends up here — the generic
   [Automata.Make (L).Dfa.determinize]/[minimize] intern their alphabet
   and call these functions, and the shared abstraction engine of
   [Fsa_hom] erases a reachability graph straight into [nfa] form — so
   the hot loops compare ints only: no label comparisons, no maps, no
   sets.

   Layout.  An [nfa] is in CSR form (compressed sparse rows): the edges
   leaving state [s] are [off.(s) .. off.(s + 1) - 1] in the flat [lab]
   and [dst] arrays; letter [-1] marks an erased (epsilon) edge.  A
   [dfa] is a flat [d_states * d_letters] transition table, [-1] for a
   missing (rejecting) transition.

   Numbering.  Both algorithms number their output exactly as the
   label-keyed implementations they replaced did (kept in
   test/automata_oracle.ml): subsets in breadth-first discovery order
   with letters tried in ascending id order, and Hopcroft's blocks in
   split order before the final trim.  Callers assign letter ids in
   label order, so DOT renderings of minimal automata are stable. *)

let log_src = Logs.Src.create "fsa.automata" ~doc:"finite-automata algorithms"

module Log = (val Logs.src_log log_src)

module Metrics = Fsa_obs.Metrics

let m_minimize_runs = Metrics.counter "automata.minimize_runs"
let m_hopcroft_splits = Metrics.counter "automata.hopcroft_splits"
let g_minimize_in = Metrics.gauge "automata.minimize_states_in"
let g_minimize_out = Metrics.gauge "automata.minimize_states_out"

exception Too_many_states of int

type nfa = {
  nb_states : int;
  nb_letters : int;
  off : int array;
  lab : int array;
  dst : int array;
  starts : int array;
  final : Bytes.t;
}

type dfa = {
  d_states : int;
  d_letters : int;
  d_start : int;
  d_final : Bytes.t;
  d_delta : int array;
}

let is_final final s = Bytes.unsafe_get final s <> '\000'

let of_edges ~nb_states ~nb_letters ~starts ~final iter =
  let off = Array.make (nb_states + 1) 0 in
  iter (fun s _ _ -> off.(s + 1) <- off.(s + 1) + 1);
  for s = 0 to nb_states - 1 do
    off.(s + 1) <- off.(s + 1) + off.(s)
  done;
  let m = off.(nb_states) in
  let lab = Array.make m 0 and dst = Array.make m 0 in
  let next = Array.sub off 0 nb_states in
  iter (fun s l d ->
      let i = next.(s) in
      lab.(i) <- l;
      dst.(i) <- d;
      next.(s) <- i + 1);
  { nb_states; nb_letters; off; lab; dst; starts; final }

let relabel ~nb_letters map (d : dfa) =
  let k = d.d_letters in
  of_edges ~nb_states:d.d_states ~nb_letters ~starts:[| d.d_start |]
    ~final:d.d_final (fun f ->
      for s = 0 to d.d_states - 1 do
        for l = 0 to k - 1 do
          let t = d.d_delta.((s * k) + l) in
          if t >= 0 then f s map.(l) t
        done
      done)

(* A growable int array. *)
module Ibuf = struct
  type t = { mutable a : int array; mutable len : int }

  let create n = { a = Array.make (max n 16) 0; len = 0 }

  let push b x =
    if b.len = Array.length b.a then begin
      let a = Array.make (2 * b.len) 0 in
      Array.blit b.a 0 a 0 b.len;
      b.a <- a
    end;
    Array.unsafe_set b.a b.len x;
    b.len <- b.len + 1
end

(* ---------------------------------------------------------------- *)
(* Subset construction                                                *)
(* ---------------------------------------------------------------- *)

(* Per-state hash for the order-independent closure hash: a closure
   hashes to the sum of its members' mixes, so it needs no sorting. *)
let mix s =
  let x = (s + 1) * 0x2545F4914F6CDD1D in
  x lxor (x lsr 29)

let no_tick ~frontier:_ = ()

let determinize ?(max_states = max_int) ?(tick = no_tick) (a : nfa) =
  let n = a.nb_states and k = a.nb_letters in
  let off = a.off and lab = a.lab and dst = a.dst and final = a.final in
  (* The closure under construction: its members are the states whose
     stamp equals [gen], listed in [clo] (which doubles as the BFS queue
     of the epsilon closure). *)
  let stamp = Array.make n 0 in
  let gen = ref 0 in
  let clo = Array.make (max n 1) 0 in
  let clo_len = ref 0 and clo_hash = ref 0 and clo_final = ref false in
  let add s =
    if stamp.(s) <> !gen then begin
      stamp.(s) <- !gen;
      clo.(!clo_len) <- s;
      incr clo_len;
      clo_hash := !clo_hash + mix s;
      if is_final final s then clo_final := true
    end
  in
  let closure seeds lo hi =
    incr gen;
    clo_len := 0;
    clo_hash := 0;
    clo_final := false;
    for i = lo to hi - 1 do
      add seeds.(i)
    done;
    let i = ref 0 in
    while !i < !clo_len do
      let s = clo.(!i) in
      for e = off.(s) to off.(s + 1) - 1 do
        if lab.(e) < 0 then add dst.(e)
      done;
      incr i
    done
  in
  (* Materialised subsets: subset [i] is [members.(sub_start.(i) ..
     sub_start.(i + 1) - 1)], indexed by an open-addressing table on its
     hash.  Equality with the current closure is a stamp check. *)
  let members = Ibuf.create n in
  let sub_start = Ibuf.create 64 in
  Ibuf.push sub_start 0;
  let sub_hash = Ibuf.create 64 in
  let sub_final = Buffer.create 64 in
  let delta = Ibuf.create (64 * k) in
  let nb = ref 0 in
  let cursor = ref 0 in
  let table = ref (Array.make 64 (-1)) in
  let insert tbl h id =
    let mask = Array.length tbl - 1 in
    let i = ref (h land mask) in
    while tbl.(!i) >= 0 do
      i := (!i + 1) land mask
    done;
    tbl.(!i) <- id
  in
  let equal_closure id =
    let lo = sub_start.a.(id) and hi = sub_start.a.(id + 1) in
    hi - lo = !clo_len
    &&
    let rec all j = j >= hi || (stamp.(members.a.(j)) = !gen && all (j + 1)) in
    all lo
  in
  let intern () =
    let h = (!clo_hash + (!clo_len * 0x3C6EF372FE94F82B)) land max_int in
    let tbl = !table in
    let mask = Array.length tbl - 1 in
    let rec find i =
      let id = tbl.(i) in
      if id < 0 then -1
      else if sub_hash.a.(id) = h && equal_closure id then id
      else find ((i + 1) land mask)
    in
    match find (h land mask) with
    | id when id >= 0 -> id
    | _ ->
      let id = !nb in
      if id >= max_states then raise (Too_many_states max_states);
      incr nb;
      for i = 0 to !clo_len - 1 do
        Ibuf.push members clo.(i)
      done;
      Ibuf.push sub_start members.len;
      Ibuf.push sub_hash h;
      Buffer.add_char sub_final (if !clo_final then '\001' else '\000');
      for _ = 1 to k do
        Ibuf.push delta (-1)
      done;
      if 2 * !nb > Array.length tbl then begin
        let bigger = Array.make (2 * Array.length tbl) (-1) in
        for j = 0 to !nb - 1 do
          insert bigger sub_hash.a.(j) j
        done;
        table := bigger
      end
      else insert tbl h id;
      tick ~frontier:(!nb - !cursor);
      id
  in
  closure a.starts 0 (Array.length a.starts);
  ignore (intern ());
  (* Successor seeds of a subset, bucketed by letter: [cnt] counts the
     seeds per letter, [touched] lists the letters that have any. *)
  let cnt = Array.make k 0 and bucket = Array.make k 0 in
  let touched = Array.make k 0 in
  let seeds = ref (Array.make 64 0) in
  while !cursor < !nb do
    let id = !cursor in
    incr cursor;
    let lo = sub_start.a.(id) and hi = sub_start.a.(id + 1) in
    let mem = members.a in
    let nt = ref 0 and total = ref 0 in
    for j = lo to hi - 1 do
      let s = mem.(j) in
      for e = off.(s) to off.(s + 1) - 1 do
        let l = lab.(e) in
        if l >= 0 then begin
          if cnt.(l) = 0 then begin
            touched.(!nt) <- l;
            incr nt
          end;
          cnt.(l) <- cnt.(l) + 1;
          incr total
        end
      done
    done;
    (* letters in ascending id order: the discovery order of the
       label-keyed construction *)
    for i = 1 to !nt - 1 do
      let l = touched.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && touched.(!j) > l do
        touched.(!j + 1) <- touched.(!j);
        decr j
      done;
      touched.(!j + 1) <- l
    done;
    let pos = ref 0 in
    for i = 0 to !nt - 1 do
      let l = touched.(i) in
      bucket.(l) <- !pos;
      pos := !pos + cnt.(l)
    done;
    if Array.length !seeds < !total then seeds := Array.make (2 * !total) 0;
    let sd = !seeds in
    for j = lo to hi - 1 do
      let s = mem.(j) in
      for e = off.(s) to off.(s + 1) - 1 do
        let l = lab.(e) in
        if l >= 0 then begin
          sd.(bucket.(l)) <- dst.(e);
          bucket.(l) <- bucket.(l) + 1
        end
      done
    done;
    for i = 0 to !nt - 1 do
      let l = touched.(i) in
      let stop = bucket.(l) in
      closure sd (stop - cnt.(l)) stop;
      cnt.(l) <- 0;
      delta.a.((id * k) + l) <- intern ()
    done
  done;
  { d_states = !nb;
    d_letters = k;
    d_start = 0;
    d_final = Buffer.to_bytes sub_final;
    d_delta = Array.sub delta.a 0 (!nb * k) }

(* ---------------------------------------------------------------- *)
(* Trim                                                               *)
(* ---------------------------------------------------------------- *)

let trim (d : dfa) =
  let n = d.d_states and k = d.d_letters and delta = d.d_delta in
  let stack = Array.make (max n 1) 0 in
  let sp = ref 0 in
  let visit seen s =
    if Bytes.get seen s = '\000' then begin
      Bytes.set seen s '\001';
      stack.(!sp) <- s;
      incr sp
    end
  in
  let reach = Bytes.make n '\000' in
  visit reach d.d_start;
  while !sp > 0 do
    decr sp;
    let s = stack.(!sp) in
    for l = 0 to k - 1 do
      let t = delta.((s * k) + l) in
      if t >= 0 then visit reach t
    done
  done;
  (* co-reachability over the predecessor CSR *)
  let poff = Array.make (n + 1) 0 in
  Array.iter (fun t -> if t >= 0 then poff.(t + 1) <- poff.(t + 1) + 1) delta;
  for s = 0 to n - 1 do
    poff.(s + 1) <- poff.(s + 1) + poff.(s)
  done;
  let pred = Array.make poff.(n) 0 in
  let next = Array.sub poff 0 n in
  for s = 0 to n - 1 do
    for l = 0 to k - 1 do
      let t = delta.((s * k) + l) in
      if t >= 0 then begin
        pred.(next.(t)) <- s;
        next.(t) <- next.(t) + 1
      end
    done
  done;
  let corect = Bytes.make n '\000' in
  for s = 0 to n - 1 do
    if is_final d.d_final s && Bytes.get reach s <> '\000' then visit corect s
  done;
  while !sp > 0 do
    decr sp;
    let s = stack.(!sp) in
    for i = poff.(s) to poff.(s + 1) - 1 do
      visit corect pred.(i)
    done
  done;
  let keep s = Bytes.get reach s <> '\000' && Bytes.get corect s <> '\000' in
  if not (keep d.d_start) then
    (* empty language: a single non-accepting state *)
    { d_states = 1;
      d_letters = k;
      d_start = 0;
      d_final = Bytes.make 1 '\000';
      d_delta = Array.make k (-1) }
  else begin
    let remap = Array.make n (-1) in
    let nb = ref 0 in
    for s = 0 to n - 1 do
      if keep s then begin
        remap.(s) <- !nb;
        incr nb
      end
    done;
    let out = Array.make (!nb * k) (-1) in
    let final = Bytes.make !nb '\000' in
    for s = 0 to n - 1 do
      let r = remap.(s) in
      if r >= 0 then begin
        if is_final d.d_final s then Bytes.set final r '\001';
        for l = 0 to k - 1 do
          let t = delta.((s * k) + l) in
          if t >= 0 && remap.(t) >= 0 then out.((r * k) + l) <- remap.(t)
        done
      end
    done;
    { d_states = !nb;
      d_letters = k;
      d_start = remap.(d.d_start);
      d_final = final;
      d_delta = out }
  end

(* ---------------------------------------------------------------- *)
(* Hopcroft minimisation                                              *)
(* ---------------------------------------------------------------- *)

(* Hopcroft's minimisation with an indexed-partition refinement
   structure: the partition is a permutation array with per-block
   ranges, splits move marked states to the front of their block's
   range, and the "process the smaller half" rule bounds the work at
   O(n log n) block movements per letter.  Runs on the trimmed
   automaton, restricted to the letters it uses and completed with a
   rejecting sink; the quotient is trimmed again, which drops the
   sink. *)
let minimize ?(tick = no_tick) (d : dfa) =
  let obs = Metrics.enabled () in
  if obs then begin
    Metrics.incr m_minimize_runs;
    Metrics.set_gauge g_minimize_in (float_of_int d.d_states)
  end;
  let t = trim d in
  let k = t.d_letters and n0 = t.d_states in
  (* sigma: the letters the trimmed automaton uses, in id order *)
  let used = Bytes.make k '\000' in
  for s = 0 to n0 - 1 do
    for l = 0 to k - 1 do
      if t.d_delta.((s * k) + l) >= 0 then Bytes.set used l '\001'
    done
  done;
  let sigma =
    List.init k Fun.id
    |> List.filter (fun l -> Bytes.get used l <> '\000')
    |> Array.of_list
  in
  let nl = Array.length sigma in
  let needs_sink =
    let missing = ref false in
    for s = 0 to n0 - 1 do
      for li = 0 to nl - 1 do
        if t.d_delta.((s * k) + sigma.(li)) < 0 then missing := true
      done
    done;
    !missing
  in
  let n = if needs_sink then n0 + 1 else n0 in
  let sink = n0 in
  let delta = Array.make (n * nl) sink in
  for s = 0 to n0 - 1 do
    for li = 0 to nl - 1 do
      let x = t.d_delta.((s * k) + sigma.(li)) in
      if x >= 0 then delta.((s * nl) + li) <- x
    done
  done;
  let final s = s < n0 && is_final t.d_final s in
  (* reverse transitions: predecessors of [d] on letter [li] are
     [rev.(rev_off.(li * n + d) ..)], in descending state order *)
  let rev_off = Array.make ((nl * n) + 1) 0 in
  for s = 0 to n - 1 do
    for li = 0 to nl - 1 do
      let key = (li * n) + delta.((s * nl) + li) in
      rev_off.(key + 1) <- rev_off.(key + 1) + 1
    done
  done;
  for i = 0 to (nl * n) - 1 do
    rev_off.(i + 1) <- rev_off.(i + 1) + rev_off.(i)
  done;
  let rev = Array.make rev_off.(nl * n) 0 in
  let next = Array.sub rev_off 0 (nl * n) in
  for s = n - 1 downto 0 do
    for li = 0 to nl - 1 do
      let key = (li * n) + delta.((s * nl) + li) in
      rev.(next.(key)) <- s;
      next.(key) <- next.(key) + 1
    done
  done;
  (* indexed partition *)
  let elems = Array.init n Fun.id in
  let loc = Array.init n Fun.id in
  let block_of = Array.make n 0 in
  let block_start = Array.make n 0 in
  let block_size = Array.make n 0 in
  let nb_blocks = ref 0 in
  let marked = Array.make n 0 in
  (* initial partition: finals, then non-finals *)
  let place pred start =
    let count = ref 0 in
    for s = 0 to n - 1 do
      if pred s then begin
        let pos = start + !count in
        elems.(pos) <- s;
        loc.(s) <- pos;
        incr count
      end
    done;
    !count
  in
  let nf = place final 0 in
  ignore (place (fun s -> not (final s)) nf);
  let new_block start size =
    let b = !nb_blocks in
    incr nb_blocks;
    block_start.(b) <- start;
    block_size.(b) <- size;
    for i = start to start + size - 1 do
      block_of.(elems.(i)) <- b
    done
  in
  if nf > 0 then new_block 0 nf;
  if nf < n then new_block nf (n - nf);
  (* worklist of (block, letter) pairs, encoded [b * nl + li], in a ring
     buffer; each pair is queued at most once at a time *)
  let cap = max 1 (n * nl) in
  let in_work = Bytes.make cap '\000' in
  let queue = Array.make cap 0 in
  let head = ref 0 and qlen = ref 0 in
  let push b li =
    let x = (b * nl) + li in
    if Bytes.get in_work x = '\000' then begin
      Bytes.set in_work x '\001';
      queue.((!head + !qlen) mod cap) <- x;
      incr qlen
    end
  in
  for b = 0 to !nb_blocks - 1 do
    for li = 0 to nl - 1 do
      push b li
    done
  done;
  (* mark a state inside its block: swap it into the marked prefix;
     [touched] records the blocks in first-marked order *)
  let touched = Array.make n 0 in
  let nt = ref 0 in
  let mark s =
    let b = block_of.(s) in
    let m = marked.(b) in
    let pos = loc.(s) in
    let boundary = block_start.(b) + m in
    if pos >= boundary then begin
      if m = 0 then begin
        touched.(!nt) <- b;
        incr nt
      end;
      let other = elems.(boundary) in
      elems.(boundary) <- s;
      elems.(pos) <- other;
      loc.(s) <- boundary;
      loc.(other) <- pos;
      marked.(b) <- m + 1
    end
  in
  let snapshot = Array.make n 0 in
  let batches = ref 0 in
  while !qlen > 0 do
    let x = queue.(!head) in
    head := (!head + 1) mod cap;
    decr qlen;
    Bytes.set in_work x '\000';
    incr batches;
    tick ~frontier:!qlen;
    let a_block = x / nl and li = x mod nl in
    (* predecessors on [li] of the members of [a_block]; marking
       reorders [elems] and may split [a_block] itself, so walk a
       snapshot of its members *)
    nt := 0;
    let asize = block_size.(a_block) in
    Array.blit elems block_start.(a_block) snapshot 0 asize;
    for i = 0 to asize - 1 do
      let key = (li * n) + snapshot.(i) in
      for j = rev_off.(key) to rev_off.(key + 1) - 1 do
        mark rev.(j)
      done
    done;
    (* split every touched block, last touched first *)
    for ti = !nt - 1 downto 0 do
      let b = touched.(ti) in
      let m = marked.(b) in
      marked.(b) <- 0;
      if m > 0 && m < block_size.(b) then begin
        if obs then Metrics.incr m_hopcroft_splits;
        (* new block: the marked prefix or the remainder, whichever is
           smaller *)
        let nb = !nb_blocks in
        incr nb_blocks;
        if m <= block_size.(b) - m then begin
          block_start.(nb) <- block_start.(b);
          block_size.(nb) <- m;
          block_start.(b) <- block_start.(b) + m;
          block_size.(b) <- block_size.(b) - m
        end
        else begin
          block_start.(nb) <- block_start.(b) + m;
          block_size.(nb) <- block_size.(b) - m;
          block_size.(b) <- m
        end;
        for i = block_start.(nb) to block_start.(nb) + block_size.(nb) - 1 do
          block_of.(elems.(i)) <- nb
        done;
        (* enqueue the (smaller) new part for every letter; a pending
           (b, c) stays pending, which keeps the refinement correct and
           at most doubles the work *)
        for c = 0 to nl - 1 do
          push nb c
        done
      end
    done
  done;
  (* the quotient, back on the full letter range *)
  let qn = !nb_blocks in
  let qdelta = Array.make (qn * k) (-1) in
  let qfinal = Bytes.make qn '\000' in
  for s = 0 to n - 1 do
    let bs = block_of.(s) in
    if final s then Bytes.set qfinal bs '\001';
    for li = 0 to nl - 1 do
      qdelta.((bs * k) + sigma.(li)) <- block_of.(delta.((s * nl) + li))
    done
  done;
  let result =
    trim
      { d_states = qn;
        d_letters = k;
        d_start = block_of.(t.d_start);
        d_final = qfinal;
        d_delta = qdelta }
  in
  if obs then Metrics.set_gauge g_minimize_out (float_of_int result.d_states);
  Log.debug (fun m ->
      m "hopcroft: minimised %d -> %d states over %d letters (%d batches)" n
        result.d_states nl !batches);
  result
