(** Polymorphic array-backed binary min-heap.

    The heap is plain data: it holds no closure, so it can be
    marshalled (or deep-copied) whenever its elements can. The order
    is a [compare]-style [~cmp] argument of every operation that
    reorders elements; a heap must always be used with the same [cmp].
    Used for event queues and other priority scheduling. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** An empty heap (minimum on top once filled). [capacity] sizes the
    backing array made by the first {!add}. *)

val of_array : cmp:('a -> 'a -> int) -> 'a array -> 'a t
(** Bottom-up heapify in O(n). The array is not modified. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val add : cmp:('a -> 'a -> int) -> 'a t -> 'a -> unit
(** O(log n) insertion. *)

val peek : 'a t -> 'a option
(** Smallest element without removing it. *)

val pop : cmp:('a -> 'a -> int) -> 'a t -> 'a option
(** Remove and return the smallest element. *)

val pop_exn : cmp:('a -> 'a -> int) -> 'a t -> 'a
(** Like {!pop} but raises [Invalid_argument] on an empty heap. *)

val elements : 'a t -> 'a array
(** Copy of the current contents in unspecified (heap-internal) order;
    the heap is unchanged. *)

val drain : cmp:('a -> 'a -> int) -> 'a t -> 'a list
(** Remove all elements in ascending order. *)

val is_heap : cmp:('a -> 'a -> int) -> 'a t -> bool
(** The heap is well formed under [cmp]: its size fits its array and
    no element sorts before its parent. Always true for a heap built
    only through this interface; the check is for one read back from
    disk. O(n). *)
