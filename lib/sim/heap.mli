(** Binary min-heap keyed by [(time, seq)].

    Used as the simulator event queue. Ties on [time] break on [seq]
    (insertion order), which makes runs deterministic. Entries are held
    as a struct of arrays, so {!push}, {!min_time}, {!min_tag} and {!pop}
    allocate nothing (beyond an occasional capacity doubling). *)

type 'a t

(** [create dummy] makes an empty heap. [dummy] is only used to fill unused
    array slots and is never returned. *)
val create : 'a -> 'a t

val size : 'a t -> int
val is_empty : 'a t -> bool

(** [push h ~time ~seq ~tag v] inserts [v] with key [(time, seq)].
    [tag] is an opaque annotation kept with the entry ({!min_tag}); the
    engine stores the event's attribution label there. *)
val push : 'a t -> time:int -> seq:int -> tag:int -> 'a -> unit

(** Time of the smallest entry. [Invalid_argument] when empty. *)
val min_time : 'a t -> int

(** Tag of the smallest entry. [Invalid_argument] when empty. *)
val min_tag : 'a t -> int

(** Remove the smallest entry and return its value. [Invalid_argument]
    when empty. *)
val pop : 'a t -> 'a

val clear : 'a t -> unit
