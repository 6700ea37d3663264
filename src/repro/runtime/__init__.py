"""Generic, domain-independent runtime environment (paper Sec. V-A).

Provides the substrate on which middleware models execute: components
with lifecycle and ports, a component factory driven by model metadata,
an event bus, clocks (wall and virtual), executors, and registries.
"""

from repro.runtime.clock import Clock, Timer, VirtualClock, WallClock
from repro.runtime.component import (
    Component,
    ComponentError,
    LifecycleState,
    Supervisor,
)
from repro.runtime.faults import (
    BreakerState,
    CircuitBreaker,
    CircuitOpen,
    FaultError,
    InvocationOutcome,
    RetryPolicy,
    call_guarded,
)
from repro.runtime.events import (
    Call,
    Event,
    EventBus,
    EventDeliveryError,
    Signal,
    Subscription,
)
from repro.runtime.executor import (
    ExecutorError,
    InlineExecutor,
    Mailbox,
    TaskExecutor,
    ThreadPoolExecutorAdapter,
)
from repro.runtime.cluster import (
    ClusterError,
    ProcessCluster,
    RemoteWorkerError,
    worker_main,
)
from repro.runtime.factory import ComponentFactory, ComponentSpec, FactoryError
from repro.runtime.ingress import (
    BATCH,
    INTERACTIVE,
    AdmissionPolicy,
    AsyncIngress,
    IngressError,
    IngressRejected,
    IngressTier,
    ShedReason,
)
from repro.runtime.metrics import (
    Counter,
    LatencyHistogram,
    MetricsRegistry,
    default_registry,
    set_default_registry,
)
from repro.runtime.registry import Registry, RegistryError, TypeRegistry
from repro.runtime.sharded import (
    ForwardingChannel,
    Shard,
    ShardedRuntime,
    ShardedRuntimeError,
    current_shard,
    shard_index_for,
)
from repro.runtime.topics import TopicIndex, TopicMatcher
from repro.runtime.trace import TraceRecord, TraceRecorder, start_tracing, stop_tracing

__all__ = [
    "Clock", "WallClock", "VirtualClock", "Timer",
    "Component", "ComponentError", "LifecycleState", "Supervisor",
    "FaultError", "CircuitOpen", "RetryPolicy", "BreakerState",
    "CircuitBreaker", "InvocationOutcome", "call_guarded",
    "Signal", "Call", "Event", "EventBus", "EventDeliveryError", "Subscription",
    "TopicMatcher", "TopicIndex",
    "TaskExecutor", "InlineExecutor", "ThreadPoolExecutorAdapter",
    "Mailbox", "ExecutorError",
    "ComponentFactory", "ComponentSpec", "FactoryError",
    "Registry", "TypeRegistry", "RegistryError",
    "ShardedRuntime", "ShardedRuntimeError", "Shard", "ForwardingChannel",
    "shard_index_for", "current_shard",
    "ProcessCluster", "ClusterError", "RemoteWorkerError",
    "worker_main",
    "IngressTier", "AsyncIngress", "AdmissionPolicy", "IngressError",
    "IngressRejected", "ShedReason", "INTERACTIVE", "BATCH",
    "Counter", "LatencyHistogram", "MetricsRegistry",
    "default_registry", "set_default_registry",
    "TraceRecord", "TraceRecorder", "start_tracing", "stop_tracing",
]
