"""Long-running service runtime: the closed loop as an always-on daemon.

The paper's system is a production service — telemetry in, forecasts
and scaling actions out, continuously.  This package wraps the batch
:class:`~repro.core.runtime.AutoscalingRuntime` step API in an asyncio
daemon with an operational surface:

* :mod:`repro.service.sources` — telemetry tick sources (in-memory
  generator, file tail);
* :mod:`repro.service.daemon` — :class:`ServiceRuntime`, the event
  loop that steps the runtime per tick, re-plans on schedule or on
  health alert, and coordinates checkpoints;
* :mod:`repro.service.http` — an asyncio HTTP+JSON control plane
  (``GET /forecast /decisions /traces /series /health /metrics
  /adaptation``, ``POST /plan /checkpoint /refit /promote
  /rollback``);
* :mod:`repro.service.dashboard` — ``repro-autoscale top``, a
  terminal dashboard polling the control plane;
* :mod:`repro.service.checkpoint` — lossless checkpoint/restore of
  runtime + monitor + drift detector + model state, so ``repro serve
  --restore`` resumes mid-trace with bit-identical subsequent
  decisions.

Run it from the CLI (``repro-autoscale serve``) or embed it::

    from repro.service import GeneratorSource, ServiceRuntime

    service = ServiceRuntime(runtime, GeneratorSource(test.values))
    service.serve_forever()          # ^C to stop; HTTP on service.port
"""

from .checkpoint import (
    CHECKPOINT_VERSION, load_checkpoint, restore_from_checkpoint, save_checkpoint,
)
from .daemon import ServiceRuntime
from .dashboard import run_dashboard
from .sources import FileTailSource, GeneratorSource

__all__ = [
    "ServiceRuntime",
    "run_dashboard",
    "GeneratorSource",
    "FileTailSource",
    "CHECKPOINT_VERSION",
    "save_checkpoint",
    "load_checkpoint",
    "restore_from_checkpoint",
]
