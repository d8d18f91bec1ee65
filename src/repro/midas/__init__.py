"""MIDAS: canned-pattern maintenance under batch updates."""

from repro.clustering.features import FCTIndex
from repro.midas.maintenance import (
    MaintenanceReport,
    Midas,
    MidasConfig,
)
from repro.midas.swapping import SwapStats, multi_scan_swap

__all__ = [
    "FCTIndex",
    "MaintenanceReport",
    "Midas",
    "MidasConfig",
    "SwapStats",
    "multi_scan_swap",
]
