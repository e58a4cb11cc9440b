(* Binary min-heaps backing the dispatcher's ready and sleeper queues.
   A single growable array of (key, value) pairs; the array doubles on
   demand and never shrinks — queue population is bounded by the thread
   count, which is tiny compared to the number of scheduling decisions
   amortised over it. *)

module type ORDERED = sig
  type t

  val compare : t -> t -> int
end

module type S = sig
  type key
  type 'a t

  val create : unit -> 'a t
  val push : 'a t -> key -> 'a -> unit
  val peek : 'a t -> (key * 'a) option
  val pop : 'a t -> (key * 'a) option
end

module Make (K : ORDERED) : S with type key = K.t = struct
  type key = K.t

  type 'a t = {
    mutable data : (K.t * 'a) array;  (* heap in [0, size) *)
    mutable size : int;
  }

  let create () = { data = [||]; size = 0 }

  let swap h i j =
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(j);
    h.data.(j) <- tmp

  let key h i = fst h.data.(i)

  let rec sift_up h i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if K.compare (key h i) (key h parent) < 0 then begin
        swap h i parent;
        sift_up h parent
      end
    end

  let rec sift_down h i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < h.size && K.compare (key h l) (key h !smallest) < 0 then smallest := l;
    if r < h.size && K.compare (key h r) (key h !smallest) < 0 then smallest := r;
    if !smallest <> i then begin
      swap h i !smallest;
      sift_down h !smallest
    end

  let push h k v =
    let entry = (k, v) in
    if h.size = Array.length h.data then begin
      (* grow; the entry itself seeds the fresh slots *)
      let cap = max 8 (2 * h.size) in
      let data = Array.make cap entry in
      Array.blit h.data 0 data 0 h.size;
      h.data <- data
    end;
    h.data.(h.size) <- entry;
    h.size <- h.size + 1;
    sift_up h (h.size - 1)

  let peek h = if h.size = 0 then None else Some h.data.(0)

  let pop h =
    if h.size = 0 then None
    else begin
      let top = h.data.(0) in
      h.size <- h.size - 1;
      if h.size > 0 then begin
        h.data.(0) <- h.data.(h.size);
        (* release the vacated slot so the value can be collected *)
        h.data.(h.size) <- h.data.(0);
        sift_down h 0
      end;
      Some top
    end
end

module Ready = Make (struct
  type t = int * int * int

  let compare (a1, a2, a3) (b1, b2, b3) =
    if a1 <> b1 then compare (a1 : int) b1
    else if a2 <> b2 then compare (a2 : int) b2
    else compare (a3 : int) b3
end)

module Sleep = Make (struct
  type t = int * int

  let compare (a1, a2) (b1, b2) =
    if a1 <> b1 then compare (a1 : int) b1 else compare (a2 : int) b2
end)
