module Digraph = Ftcsn_graph.Digraph
module Rng = Ftcsn_prng.Rng

type params = {
  branching : int;
  width_factor : int;
  degree : int;
}

let paper_params = { branching = 4; width_factor = 64; degree = 10 }

let scaled_params ?(branching = 4) ?(width_factor = 4) ?(degree = 6) () =
  { branching; width_factor; degree }

type t = {
  stages : int array array;
  levels : int;
  trim : int;
  params : params;
}

let ipow base e =
  let rec go acc e = if e = 0 then acc else go (acc * base) (e - 1) in
  if e < 0 then invalid_arg "ipow" else go 1 e

let block_width params ~level = params.width_factor * ipow params.branching level

(* Number of matching rounds between child c and quarter q of its parent,
   chosen so both row sums and column sums equal [degree]. *)
let rounds params ~c ~q =
  let base = params.degree / params.branching in
  let rem = params.degree mod params.branching in
  base + if (c + q) mod params.branching < rem then 1 else 0

(* One random perfect matching from [srcs] to [dsts] (equal sizes). *)
let add_matching builder rng srcs dsts =
  let s = Array.length srcs in
  assert (Array.length dsts = s);
  let pi = Rng.permutation rng s in
  for x = 0 to s - 1 do
    ignore (Digraph.Builder.add_edge builder ~src:srcs.(x) ~dst:dsts.(pi.(x)))
  done

let slice stage ~first ~width = Array.sub stage first width

let complete_bipartite builder srcs dsts =
  Array.iter
    (fun s ->
      Array.iter
        (fun d -> ignore (Digraph.Builder.add_edge builder ~src:s ~dst:d))
        dsts)
    srcs

let build ~builder ~rng ~params ~levels ~trim ?first_stage ?last_stage () =
  if levels < 1 then invalid_arg "Recursive_nb.build: levels >= 1";
  if trim < 0 || trim > levels then invalid_arg "Recursive_nb.build: trim";
  if params.branching < 2 || params.width_factor < 1 || params.degree < 1 then
    invalid_arg "Recursive_nb.build: params";
  let beta = params.branching in
  let l = levels in
  let width = block_width params ~level:l in
  let terminal_count = ipow beta l in
  let stage_width s = if s = 0 || s = 2 * l then terminal_count else width in
  let first_s = trim and last_s = (2 * l) - trim in
  let expect name arr s =
    if Array.length arr <> stage_width s then
      invalid_arg (Printf.sprintf "Recursive_nb.build: %s has wrong width" name)
  in
  (* allocate stages *)
  let stages =
    Array.init
      (last_s - first_s + 1)
      (fun idx ->
        let s = first_s + idx in
        if s = first_s then
          match first_stage with
          | Some arr ->
              expect "first_stage" arr s;
              arr
          | None ->
              Array.init (stage_width s) (fun _ -> Digraph.Builder.add_vertex builder)
        else if s = last_s then
          match last_stage with
          | Some arr ->
              expect "last_stage" arr s;
              arr
          | None ->
              Array.init (stage_width s) (fun _ -> Digraph.Builder.add_vertex builder)
        else
          Array.init (stage_width s) (fun _ -> Digraph.Builder.add_vertex builder))
  in
  let stage s = stages.(s - first_s) in
  (* expanding step from child-structured stage s (level i) up to
     parent-structured stage s+1 (level i+1) *)
  let expand_up s i =
    let s_width = block_width params ~level:i in
    let child_blocks = ipow beta (l - i) in
    for bidx = 0 to child_blocks - 1 do
      let p = bidx / beta and c = bidx mod beta in
      let child = slice (stage s) ~first:(bidx * s_width) ~width:s_width in
      for q = 0 to beta - 1 do
        let quarter =
          slice (stage (s + 1))
            ~first:((p * s_width * beta) + (q * s_width))
            ~width:s_width
        in
        for _ = 1 to rounds params ~c ~q do
          add_matching builder rng child quarter
        done
      done
    done
  in
  (* mirrored step from parent-structured stage s (level i+1) down to
     child-structured stage s+1 (level i) *)
  let expand_down s i =
    let s_width = block_width params ~level:i in
    let child_blocks = ipow beta (l - i) in
    for bidx = 0 to child_blocks - 1 do
      let p = bidx / beta and c = bidx mod beta in
      let child = slice (stage (s + 1)) ~first:(bidx * s_width) ~width:s_width in
      for q = 0 to beta - 1 do
        let quarter =
          slice (stage s)
            ~first:((p * s_width * beta) + (q * s_width))
            ~width:s_width
        in
        for _ = 1 to rounds params ~c ~q do
          add_matching builder rng quarter child
        done
      done
    done
  in
  for s = first_s to last_s - 1 do
    if s = 0 then begin
      (* terminal fan-in: groups of beta inputs -> level-1 blocks *)
      let bw = block_width params ~level:1 in
      for g = 0 to ipow beta (l - 1) - 1 do
        complete_bipartite builder
          (slice (stage 0) ~first:(g * beta) ~width:beta)
          (slice (stage 1) ~first:(g * bw) ~width:bw)
      done
    end
    else if s = (2 * l) - 1 then begin
      let bw = block_width params ~level:1 in
      for g = 0 to ipow beta (l - 1) - 1 do
        complete_bipartite builder
          (slice (stage s) ~first:(g * bw) ~width:bw)
          (slice (stage (2 * l)) ~first:(g * beta) ~width:beta)
      done
    end
    else if s < l then expand_up s s
    else begin
      (* s >= l: stage s has level 2l - s, stage s+1 has level 2l - s - 1 *)
      expand_down s ((2 * l) - s - 1)
    end
  done;
  { stages; levels; trim; params }

let make ~rng ~params ~levels =
  let builder = Digraph.Builder.create () in
  let t = build ~builder ~rng ~params ~levels ~trim:0 () in
  let graph = Digraph.Builder.freeze builder in
  let inputs = t.stages.(0) in
  let outputs = t.stages.(Array.length t.stages - 1) in
  ( Network.make
      ~name:
        (Printf.sprintf "recursive-nb-b%d-w%d-d%d-L%d" params.branching
           params.width_factor params.degree levels)
      ~graph ~inputs ~outputs,
    t )
