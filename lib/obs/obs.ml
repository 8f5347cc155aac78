(** Unified observability layer: JSON encoding, table rendering, the
    metrics registry, the one observation stream ({!Event}) and two of
    its subscribers — the virtual-time tracer and the per-machine heap
    observer. Depends on nothing so every simulator layer can use it. *)

module Json = Json
module Event = Event
module Table = Table
module Metrics = Metrics
module Tracer = Tracer
module Forensics = Forensics
