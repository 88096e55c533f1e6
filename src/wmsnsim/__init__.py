"""Deterministic simulator for a two-tier hybrid optical/RF wireless
multimedia sensor network: directional multipath route discovery, a
grid-scheduled reservation MAC, QoS traffic classes, per-slot energy
metering, fault injection, and post-run trace audits."""

from .audit import AuditReport, Verdict, run_audits
from .engine import (
    ChannelConfig,
    EnergyCosts,
    EnergyMeter,
    FlowStats,
    SimReport,
    Simulation,
    StationStats,
    Transmission,
    resolve_slot,
    run_simulation,
)
from .geometry import (
    ANGLE_TOL,
    DegenerateLineError,
    GridCell,
    GridSpec,
    Point,
    Sector,
    angle_diff,
    bearing,
    distance,
    grid_of,
    normalize_angle,
    point_to_line_distance,
    rp_slot_of,
    sector_contains,
)
from .mac import (
    BackoffConfig,
    BackoffState,
    ControlMessage,
    DatagramCancelError,
    FrameLayout,
    MacConfig,
    MsgKind,
    NoFreeSlotsError,
    ReservationEntry,
    ReservationKind,
    StationMac,
    choose_grant,
    mask_to_slots,
    my_rp_slot,
)
from .routing import (
    InvalidEndpointError,
    Path,
    PathScore,
    ProbeMessage,
    ProgressMode,
    RouteConfig,
    collect_paths,
    discover,
    forward_probe,
    make_probe,
    next_hop_candidates,
    rank_paths,
    score_path,
)
from .scenario import (
    FaultSpec,
    Issue,
    Scenario,
    ScenarioError,
    from_dict,
    parse_scenario,
    to_dict,
)
from .topology import (
    Network,
    NotClusterHeadError,
    Station,
    StationKind,
    UnknownStationError,
    attach_point,
    common_range,
    fso_can_transmit,
    rf_hop_distance,
)
from .trace import serialize_trace, trace_digest
from .traffic import (
    SERVICE_CLASSES,
    DropReason,
    Flow,
    PacketQueue,
    PacketRecord,
    PacketSource,
    ServiceClass,
    ServiceMode,
    UnknownServiceClassError,
    establishment_priority,
    service_class,
)

__version__ = "0.1.0"
