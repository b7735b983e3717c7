(* Binary min-heap specialised for the event queue: entries are keyed by
   (time, seq) so that events scheduled for the same instant fire in
   insertion order, which keeps simulations deterministic.

   Struct of arrays: an entry at slot [i] is [times.(i)], [seqs.(i)],
   [tags.(i)] and [values.(i)], so a push or pop allocates nothing
   (beyond the occasional capacity doubling). Sifts move a hole rather
   than swapping entries: the moving entry is held in locals and
   written once, at its final slot. [tag] is an opaque client
   annotation riding the entry (the engine stores the event's
   attribution label there); it plays no part in the ordering. *)

type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable tags : int array;
  mutable values : 'a array;
  mutable size : int;
  dummy : 'a;
}

let initial_capacity = 64

let create dummy =
  {
    times = Array.make initial_capacity 0;
    seqs = Array.make initial_capacity 0;
    tags = Array.make initial_capacity 0;
    values = Array.make initial_capacity dummy;
    size = 0;
    dummy;
  }

let size h = h.size
let is_empty h = h.size = 0

let grow h =
  let cap = 2 * Array.length h.times in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 h.size;
    b
  in
  h.times <- extend h.times 0;
  h.seqs <- extend h.seqs 0;
  h.tags <- extend h.tags 0;
  h.values <- extend h.values h.dummy

(* Copy the entry at slot [src] into slot [dst]. *)
let move h ~src ~dst =
  h.times.(dst) <- h.times.(src);
  h.seqs.(dst) <- h.seqs.(src);
  h.tags.(dst) <- h.tags.(src);
  h.values.(dst) <- h.values.(src)

let push h ~time ~seq ~tag value =
  if h.size = Array.length h.times then grow h;
  (* sift up: walk the hole from the new last slot towards the root
     while the parent is larger *)
  let hole = ref h.size in
  h.size <- h.size + 1;
  let continue = ref true in
  while !continue && !hole > 0 do
    let parent = (!hole - 1) / 2 in
    let pt = h.times.(parent) in
    if time < pt || (time = pt && seq < h.seqs.(parent)) then begin
      move h ~src:parent ~dst:!hole;
      hole := parent
    end
    else continue := false
  done;
  let i = !hole in
  h.times.(i) <- time;
  h.seqs.(i) <- seq;
  h.tags.(i) <- tag;
  h.values.(i) <- value

let min_time h =
  if h.size = 0 then invalid_arg "Heap.min_time: empty heap";
  h.times.(0)

let min_tag h =
  if h.size = 0 then invalid_arg "Heap.min_tag: empty heap";
  h.tags.(0)

let pop h =
  if h.size = 0 then invalid_arg "Heap.pop: empty heap";
  let top = h.values.(0) in
  let last = h.size - 1 in
  h.size <- last;
  (* sift down: the last entry fills the root's hole, walking it towards
     the leaves while a child is smaller *)
  let time = h.times.(last)
  and seq = h.seqs.(last)
  and tag = h.tags.(last)
  and value = h.values.(last) in
  h.values.(last) <- h.dummy;
  if last > 0 then begin
    let hole = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !hole) + 1 in
      if l >= last then continue := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < last
            && (h.times.(r) < h.times.(l)
               || (h.times.(r) = h.times.(l) && h.seqs.(r) < h.seqs.(l)))
          then r
          else l
        in
        let ct = h.times.(c) in
        if ct < time || (ct = time && h.seqs.(c) < seq) then begin
          move h ~src:c ~dst:!hole;
          hole := c
        end
        else continue := false
      end
    done;
    let i = !hole in
    h.times.(i) <- time;
    h.seqs.(i) <- seq;
    h.tags.(i) <- tag;
    h.values.(i) <- value
  end;
  top

let clear h =
  Array.fill h.values 0 h.size h.dummy;
  h.size <- 0
