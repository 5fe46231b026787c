type t = { start : int array; idents : int array; targets : int array }

let build ~slots ~slot ~ident ~target =
  let e = Array.length slot in
  let start = Array.make (slots + 1) 0 in
  Array.iter (fun d -> start.(d + 1) <- start.(d + 1) + 1) slot;
  for d = 1 to slots do
    start.(d) <- start.(d) + start.(d - 1)
  done;
  (* a stable counting sort by slot keeps each slot in identifier order *)
  let idents = Array.make e 0 and targets = Array.make e 0 in
  let fill = Array.sub start 0 slots in
  for j = 0 to e - 1 do
    let d = slot.(j) in
    let at = fill.(d) in
    if at > start.(d) && idents.(at - 1) >= ident.(j) then
      invalid_arg "Directory.build: entries not in ascending identifier order";
    idents.(at) <- ident.(j);
    targets.(at) <- target.(j);
    fill.(d) <- at + 1
  done;
  { start; idents; targets }

let find t d x =
  let lo = ref t.start.(d) and hi = ref t.start.(d + 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.idents.(mid) < x then lo := mid + 1 else hi := mid
  done;
  if !lo < t.start.(d + 1) && t.idents.(!lo) = x then t.targets.(!lo) else -1

let fold_targets t d f acc =
  let acc = ref acc in
  for j = t.start.(d) to t.start.(d + 1) - 1 do
    acc := f !acc t.targets.(j)
  done;
  !acc
