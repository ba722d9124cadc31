"""Online model management: drift→refit→shadow→promote→rollback.

The health monitor (:mod:`repro.obs.monitor`) *detects* that the live
forecaster has gone stale; this package *acts* on it.  A drift alert
(or an operator's ``POST /refit``) trains a candidate — an incremental
warm-started refit of the live model — which then shadows the
incumbent, forecasting every tick without actuating, until the
:class:`~repro.adaptation.promotion.PromotionPolicy` promotes it (with
a post-promotion rollback guard) or rejects it.  See
``docs/adaptation.md`` for the state machine and endpoint contract.
"""

from .manager import AdaptationError, AdaptationManager
from .promotion import SHADOWING

__all__ = ["AdaptationError", "AdaptationManager", "SHADOWING"]
