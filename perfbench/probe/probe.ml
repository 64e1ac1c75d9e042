(* Host-speed probe: fixed work whose time tracks how fast this host runs
   allocation- and hash-heavy OCaml code at the moment.

   A breadth-first search of the product of [copies] copies of a
   [size]-state component.  States are lists of strings, visited states go
   into a structural hash table, as in an exploration of the fsa tool.  The
   probe depends on nothing of fsa, so a change to fsa never changes its
   time.  It exits 1 if it finds a wrong number of states. *)

let size = 16
let copies = 4
let local = Array.init size (fun i -> "s" ^ string_of_int i)

let index name = int_of_string (String.sub name 1 (String.length name - 1))

(* Every state that moves one component by one of two local steps. *)
let successors state =
  let rec go before = function
    | [] -> []
    | x :: after ->
        let i = index x in
        let step j = List.rev_append before (local.(j) :: after) in
        step ((i + 1) mod size)
        :: step ((i * 7 + 3) mod size)
        :: go (x :: before) after
  in
  go [] state

let explore () =
  let seen = Hashtbl.create 1024 in
  let queue = Queue.create () in
  let init = List.init copies (fun _ -> local.(0)) in
  Hashtbl.replace seen init ();
  Queue.add init queue;
  while not (Queue.is_empty queue) do
    List.iter
      (fun t ->
        if not (Hashtbl.mem seen t) then begin
          Hashtbl.replace seen t ();
          Queue.add t queue
        end)
      (successors (Queue.pop queue))
  done;
  Hashtbl.length seen

let () =
  let expected = int_of_float (float_of_int size ** float_of_int copies) in
  if explore () <> expected then exit 1
