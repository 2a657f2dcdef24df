"""Pipeline configuration dataclasses.

The reference's runtime-dynamic attribute names (``--smart_attribute``,
``--additional_vertex_attribute``, ``--edge_attribute`` — reference
``arguments.py:42-43,106-110``) become explicit config resolved once at
pipeline build time, never per row.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

# inputs below this total size are read on the driver with pyarrow (a Ray
# Dataset execution over a few MB costs seconds of pure scheduling);
# bigger ones use the distributed read path. Callers size their inputs
# BEFORE any read. Shared by the pipeline's side-partition reads and
# graph export and by the edge-list import (kgeng/io/graph_files.py).
_DRIVER_SIDE_READ_BYTES = 256 << 20


@dataclass(frozen=True)
class SmartGraphConfig:
    """Output-contract knobs, mirroring the reference's smart-graph layout.

    Layouts per reference ``vertices_generator.py:24-41`` and
    ``graphalytics_importer.py:87,93``; ``_id`` formats per
    ``vertices_generator.py:149-160``.
    """

    graph_name: str = "kg"
    vertex_coll: str = "entities"
    edge_coll: str = "triples"
    smart_attribute: str = "entity_id"
    is_smart: bool = True
    num_shards: int = 32
    replication_factor: int = 1


@dataclass(frozen=True)
class DetectConfig:
    """Mention-detection knobs (gazetteer + regex detectors)."""

    # regex detectors: name -> pattern (compiled once per actor/task)
    regex_detectors: tuple[tuple[str, str], ...] = (
        ("DATE", r"\b\d{4}-\d{2}-\d{2}\b"),
        ("EMAIL", r"\b[\w.+-]+@[\w-]+\.[\w.]+\b"),
        ("ID", r"\b[A-Z]{3}-\d+\b"),
    )
    case_sensitive: bool = True


@dataclass(frozen=True)
class BlockConfig:
    """MinHash-LSH blocking knobs."""

    num_perm: int = 64
    num_bands: int = 32  # rows per band = num_perm // num_bands; r=2 keeps
    # recall ~1.0 down to Jaccard ~0.5 (single-char-typo aliases); the
    # Jaccard verify step filters the extra band collisions
    shingle_k: int = 3  # character shingles
    max_band_group: int = 256  # cap group size; larger bands are dropped with a log
    jaccard_threshold: float = 0.45  # verify threshold for candidate pairs


@dataclass(frozen=True)
class CanonicalizeConfig:
    hot_key_salt: int = 16  # number of salt buckets for hot canon keys
    hot_key_threshold: int = 5000  # rows per key above which we salt


@dataclass(frozen=True)
class PipelineConfig:
    # bump to invalidate old checkpoints when the RECORD layout changes
    # (v2: link columns folded into extract's mention records;
    #  v3: per-batch-unique NER surfaces as a 'surface' side partition;
    #  v4: triples checkpoint hive-partitioned t_kind=triple|eid;
    #  v5: both-exact triples early-emitted by extract as the records
    #      'triple'/'eid' partitions — the triples stage resolves only
    #      the alias-dependent residue)
    pipeline_version: int = 5
    seed: int = 20260817
    smart: SmartGraphConfig = field(default_factory=SmartGraphConfig)
    detect: DetectConfig = field(default_factory=DetectConfig)
    block: BlockConfig = field(default_factory=BlockConfig)
    canon: CanonicalizeConfig = field(default_factory=CanonicalizeConfig)
    # execution
    # fused-extract task grain (docs per read+extract+write task):
    # sweep at 1M docs measured 8192 fastest at 32 CPUs (9.1-9.4 s vs
    # 9.4-9.9 s for 4096, 11.2 s for 2048) and no worse at 8 CPUs
    detect_batch_size: int = 8192
    link_batch_size: int = 16384
    link_concurrency: int = 8

    def config_hash(self) -> str:
        """Stable hash of the config — part of every checkpoint manifest."""
        return hashlib.sha256(
            json.dumps(asdict(self), sort_keys=True, default=str).encode()
        ).hexdigest()[:16]
