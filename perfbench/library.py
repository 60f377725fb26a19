"""Loading the growthdiagrams package from the checkout's source tree.

The benchmark never imports the package at module level: every set-up
imports it afresh (see ``load``), so that import cost is part of the
measured set-up time, and all workload code reaches the library through
the namespace returned here.
"""

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

PACKAGE = "growthdiagrams"


class LibraryMissing(Exception):
    """The checkout has no importable growthdiagrams source tree."""


def _purge():
    for name in [m for m in sys.modules
                 if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]


def load(src: Path) -> SimpleNamespace:
    """Import growthdiagrams from ``src`` (never from anywhere else)."""
    src = src.resolve()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    _purge()
    try:
        pkg = importlib.import_module(PACKAGE)
    except ImportError as exc:
        raise LibraryMissing(f"cannot import {PACKAGE} from {src}: {exc}") from None
    origin = Path(pkg.__file__).resolve()
    if src not in origin.parents:
        raise LibraryMissing(f"{PACKAGE} was imported from {origin}, not from {src}")
    mod = {name: importlib.import_module(f"{PACKAGE}.{name}")
           for name in ("correspondences", "enumeration", "fillings", "growth",
                        "local_rules", "partitions", "shapes")}
    enum, fill, growth = mod["enumeration"], mod["fillings"], mod["growth"]
    parts, corr = mod["partitions"], mod["correspondences"]
    return SimpleNamespace(
        VARIANTS=mod["local_rules"].VARIANTS,
        get_variant=mod["local_rules"].get_variant,
        FerrersShape=mod["shapes"].FerrersShape,
        Filling=fill.Filling, chain_spec=fill.chain_spec,
        longest_chain=fill.longest_chain, ZERO_ONE=fill.ZERO_ONE,
        label_diagram=growth.label_diagram, border_tableau=growth.border_tableau,
        reconstruct=growth.reconstruct, blow_up=growth.blow_up,
        shrink_back=growth.shrink_back,
        all_fillings=enum.all_fillings, count_table=enum.count_table,
        verify_t2=enum.verify_t2, verify_t2a_nes1=enum.verify_t2a_nes1,
        verify_t2a_nes2=enum.verify_t2a_nes2, verify_t4=enum.verify_t4,
        verify_t6=enum.verify_t6,
        T2_SPECS=enum.T2_SPECS, NES1_SPECS=enum.NES1_SPECS,
        NES1_IMAGE_SPECS=enum.NES1_IMAGE_SPECS, NES2_SPECS=enum.NES2_SPECS,
        NES2_IMAGE_SPECS=enum.NES2_IMAGE_SPECS,
        make_partition=parts.make_partition, conjugate=parts.conjugate,
        is_horizontal_strip=parts.is_horizontal_strip,
        is_vertical_strip=parts.is_vertical_strip,
        all_set_partitions=corr.all_set_partitions,
        swap_chain_statistics=corr.swap_chain_statistics,
        conjugate_set_partition=corr.conjugate_set_partition,
        conjugate_set_partition_enhanced=corr.conjugate_set_partition_enhanced,
        cross=corr.cross, nest=corr.nest,
        enhanced_cross=corr.enhanced_cross, enhanced_nest=corr.enhanced_nest,
    )
