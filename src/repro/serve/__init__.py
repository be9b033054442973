"""Online verification serving layer.

Turns the batch-oriented defense pipeline into an online service that
answers individual :class:`VerificationRequest`s with bounded latency:
a bounded admission queue with configurable backpressure, a
micro-batching scheduler that groups compatible requests, and a warm
worker pool that trains the phoneme segmenter once per worker at
startup.  See DESIGN.md § "Online serving architecture".
"""

from repro.serve.batching import (
    Batch,
    BatchControllerStats,
    BatchSizeController,
    BatchingConfig,
    MicroBatchScheduler,
)
from repro.serve.loadgen import (
    LoadgenConfig,
    LoadgenReport,
    RecordingPool,
    UserActivityModel,
    build_recording_pool,
    run_loadgen,
)
from repro.serve.metrics import LatencySummary, ServiceEvents, ServiceMetrics
from repro.serve.queue import BackpressurePolicy, BoundedRequestQueue
from repro.serve.request import (
    RequestStatus,
    VerificationRequest,
    VerificationResponse,
)
from repro.serve.service import ServiceConfig, VerificationService
from repro.serve.workers import PipelineSpec, WarmWorkerPool

__all__ = [
    "BackpressurePolicy",
    "Batch",
    "BatchControllerStats",
    "BatchSizeController",
    "BatchingConfig",
    "BoundedRequestQueue",
    "LatencySummary",
    "LoadgenConfig",
    "LoadgenReport",
    "MicroBatchScheduler",
    "PipelineSpec",
    "RecordingPool",
    "RequestStatus",
    "ServiceConfig",
    "ServiceEvents",
    "ServiceMetrics",
    "UserActivityModel",
    "VerificationRequest",
    "VerificationResponse",
    "VerificationService",
    "WarmWorkerPool",
    "build_recording_pool",
    "run_loadgen",
]
