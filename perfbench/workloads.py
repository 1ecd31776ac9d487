"""The benchmark's workloads: one generated table each, and its mining knobs."""

from __future__ import annotations

from dataclasses import dataclass

CHUNK_ROWS = 44_200  # rows per synthetic_tables call


@dataclass(frozen=True)
class Workload:
    """One generated table and the mining knobs used on it.

    ``synthetic_tables`` is called once per ``CHUNK_ROWS`` rows with the
    seeds ``seed * 100 + i``, so the rows are distinct draws; ``replicate``
    then writes the whole table that many times.
    """

    rows: int
    continuous: int
    categorical: int
    min_corr: float
    max_premise_len: int | None = None
    replicate: int = 1

    def mine_args(self) -> list[str]:
        args = ["--min-corr", repr(self.min_corr)]
        if self.max_premise_len is not None:
            args += ["--max-premise-len", str(self.max_premise_len)]
        return args


WORKLOADS = {
    # 442,000 distinct rows (the paper's x1000 size), 30 properties: reading
    # and encoding the CSV is most of the run; int64 scan path.
    "tall_narrow": Workload(rows=442_000, continuous=9, categorical=1, min_corr=0.35),
    # 66 properties, past the 63-bit word: mining on the Python-int scan is
    # most of the run, preprocessing is light.
    "wide": Workload(rows=20_000, continuous=22, categorical=0, min_corr=0.40, max_premise_len=3),
    # 4,420 distinct rows written 10 times, 63 properties, ~55k rules: per
    # premise cost and JSON output dominate; the only duplicate-rich table.
    "many_rules_replicated": Workload(
        rows=4_420, continuous=21, categorical=0, min_corr=0.40, max_premise_len=5, replicate=10
    ),
}


def mining_config(name: str):
    """The ``MiningConfig`` that ``mine_args`` asks the CLI for."""
    from goalrules.engine import MiningConfig

    spec = WORKLOADS[name]
    return MiningConfig(min_corr=spec.min_corr, max_premise_len=spec.max_premise_len)
