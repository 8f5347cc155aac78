(** Unified observability layer: JSON encoding, table rendering, the
    metrics registry, the virtual-time tracer and the per-machine heap
    observer. Depends on nothing so every simulator layer can use it. *)

module Json = Json
module Table = Table
module Metrics = Metrics
module Tracer = Tracer
module Forensics = Forensics
