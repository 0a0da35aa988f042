"""Declarative experiment campaigns: YAML grids over the paper's runners.

A campaign config (YAML, loaded with PyYAML) declares *what* to sweep —
experiments, presets, seeds, preset overrides — and the runner turns it
into deterministic per-cell tasks for the sweep engine
(:mod:`repro.runtime.sweep`, shared with ``repro run all``): executed
over the worker pool, checkpointed in the fsynced sweep journal
(crash-safe ``--resume``), and aggregated into one atomic
schema-versioned campaign record the dashboard and ``repro stats`` can
read.  See the README's Campaigns section and ``examples/campaigns/``.
"""

from .config import (
    CAMPAIGN_SCHEMA_VERSION,
    CampaignCell,
    CampaignConfig,
    CampaignConfigError,
    StopCriteria,
    config_digest,
    expand_cells,
    load_campaign,
    parse_campaign,
)
from .records import (
    CAMPAIGN_RECORD_SCHEMA_VERSION,
    CampaignRecord,
    format_campaign_record,
    list_campaign_records,
    load_campaign_record,
    write_campaign_record,
)
from .runner import (
    CELL_RUNNERS,
    CampaignOutcome,
    CampaignRunner,
    CellResult,
    cell_payload,
)

__all__ = [
    "CAMPAIGN_RECORD_SCHEMA_VERSION",
    "CAMPAIGN_SCHEMA_VERSION",
    "CELL_RUNNERS",
    "CampaignCell",
    "CampaignConfig",
    "CampaignConfigError",
    "CampaignOutcome",
    "CampaignRecord",
    "CampaignRunner",
    "CellResult",
    "StopCriteria",
    "cell_payload",
    "config_digest",
    "expand_cells",
    "format_campaign_record",
    "list_campaign_records",
    "load_campaign",
    "load_campaign_record",
    "parse_campaign",
    "write_campaign_record",
]
