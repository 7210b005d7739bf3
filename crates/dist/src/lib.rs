//! mrpic-dist: a multi-rank distributed runtime for the PIC step loop.
//!
//! Executes the full mesh-refined PIC step across N ranks, each owning a
//! shard of the [`mrpic_amr::DistributionMapping`] and running in its own
//! thread, with all cross-rank data flowing as serialized byte messages
//! over a pluggable [`transport::Endpoint`]. The v1 backends are
//! in-process (`std::sync::mpsc` channel mesh), a recording wrapper that
//! captures real message traces for the cluster simulator, and a
//! fault-injecting wrapper ([`faults::FaultyEndpoint`]) driven by a
//! seeded [`faults::FaultPlan`] for chaos testing.
//!
//! The headline property, proven by `tests/dist.rs`: `step()` is bitwise
//! identical across 1, 2, and 4 ranks — including through an adopted
//! load-balance decision that physically migrates box data between
//! ranks. See DESIGN.md §9 for the determinism argument. The same
//! invariant makes crash recovery exact: `tests/faults.rs` proves that
//! runs under injected transient faults — and runs that lose a rank
//! mid-flight and roll back to a checkpoint epoch (DESIGN.md §10) —
//! still match the unfaulted serial run bitwise.

pub mod comm;
pub mod faults;
pub mod frame;
pub mod msg;
pub mod obswire;
pub mod sim;
pub mod socket;
pub mod transport;

pub use comm::{DistComm, RankLoss};
pub use faults::{
    faulty_mem_transport, CrashPoint, FaultInjector, FaultPlan, FaultyEndpoint, PhasePick,
};
pub use frame::{FrameError, FrameHeader, FrameKind, FRAME_MAGIC, PROTO_VERSION};
pub use obswire::{spawn_metrics_listener, MetricsPusher, METRICS_SOCK_FILE};
pub use sim::{
    boxed, elastic_peak, parse_elastic_plan, DistSim, ElasticAction, ElasticEvent, RecoveryEvent,
    ResizeEvent, StepError, TransportKind,
};
pub use socket::{proc_transport, socket_mesh, MeshCfg, ProcEndpoint, SocketEndpoint, WireKind};
pub use transport::{
    mem_transport, mem_transport_with_timeout, recording_mem_transport, Endpoint, MemEndpoint,
    MsgRecord, Phase, Recorder, RecordingEndpoint, RecvRecord, Tag, TransportError,
    TransportErrorKind,
};
