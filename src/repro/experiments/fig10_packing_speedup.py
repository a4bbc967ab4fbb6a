"""Figure 10 (and Section 5.4) — speedup from operation packing.

"Figure 10 shows the percent speedup over the baseline system in the
configuration with the decode width of four ... The average speedup
across SPECint95 was 7.1% for perfect branch prediction and 4.3% with
the realistic predictor ... The average speedup for the media
benchmarks was 7.6% with perfect branch prediction and 8.0% with the
realistic branch predictor."

Section 5.4 extends the study to 8-wide decode ("The average speedup
for SPECint95 was 9.9% for perfect branch prediction and 6.2% with the
combining predictor ... for the media benchmarks 10.3% ... and 10.4%")
and Section 5.3 adds replay packing; both variants are options here.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import BASELINE, MachineConfig
from repro.exec.jobs import Job
from repro.experiments.registry import Experiment, ResultFn, register
from repro.experiments.base import (
    all_names,
    format_table,
    mean,
    media_names,
    run_workload,
    spec_names,
)
from repro.stats.counters import speedup_pct


@dataclass
class Fig10Row:
    benchmark: str
    perfect_pct: float      # packing speedup under oracle prediction
    realistic_pct: float    # packing speedup under the combining predictor


@dataclass
class Fig10Result:
    decode_width: int
    replay: bool
    rows: list[Fig10Row]

    def _suite(self, names: tuple[str, ...], perfect: bool) -> float:
        return mean([r.perfect_pct if perfect else r.realistic_pct
                     for r in self.rows if r.benchmark in names])

    @property
    def spec_perfect(self) -> float:
        return self._suite(spec_names(), True)

    @property
    def spec_realistic(self) -> float:
        return self._suite(spec_names(), False)

    @property
    def media_perfect(self) -> float:
        return self._suite(media_names(), True)

    @property
    def media_realistic(self) -> float:
        return self._suite(media_names(), False)


def _speedup(name: str, config: MachineConfig, replay: bool,
             scale: int, result: ResultFn) -> float:
    base = result(name, config, scale)
    packed = result(name, config.with_packing(replay=replay), scale)
    return speedup_pct(base.stats.cycles, packed.stats.cycles)


def run(config: MachineConfig = BASELINE, scale: int = 1,
        decode_width: int = 4, replay: bool = False,
        result: ResultFn = run_workload) -> Fig10Result:
    if decode_width != config.decode_width:
        config = config.with_decode_width(decode_width)
    rows = []
    for name in all_names():
        rows.append(Fig10Row(
            benchmark=name,
            perfect_pct=_speedup(name, config.with_predictor("perfect"),
                                 replay, scale, result),
            realistic_pct=_speedup(name, config.with_predictor("combining"),
                                   replay, scale, result),
        ))
    return Fig10Result(decode_width=decode_width, replay=replay, rows=rows)


def report(result: Fig10Result) -> str:
    title = (f"Figure 10 — % speedup from operation packing "
             f"(decode width {result.decode_width}"
             f"{', replay packing' if result.replay else ''})")
    headers = ["benchmark", "perfect BP %", "combining BP %"]
    rows = [[r.benchmark, r.perfect_pct, r.realistic_pct]
            for r in result.rows]
    rows.append(["SPECint95 avg", result.spec_perfect,
                 result.spec_realistic])
    rows.append(["MediaBench avg", result.media_perfect,
                 result.media_realistic])
    return title + "\n" + format_table(headers, rows, precision=1)


def jobs(scale: int = 1, config: MachineConfig = BASELINE,
         decode_width: int = 4, replay: bool = False) -> list[Job]:
    """Each benchmark under both predictors, plain and packed (the
    plain combining runs are the shared baseline suite; the packed
    runs are shared with Figure 11)."""
    if decode_width != config.decode_width:
        config = config.with_decode_width(decode_width)
    out = []
    for name in all_names():
        for predictor in ("perfect", "combining"):
            cfg = config.with_predictor(predictor)
            out.append(Job(name, cfg, scale))
            out.append(Job(name, cfg.with_packing(replay=replay), scale))
    return out


register(Experiment(
    name="fig10",
    description="Figure 10 — % speedup from operation packing "
                "(4-wide decode)",
    jobs=jobs,
    render=lambda scale, result: report(run(scale=scale, result=result)),
))

register(Experiment(
    name="fig10-replay",
    description="Section 5.3 — packing speedup with replay packing",
    jobs=lambda scale: jobs(scale, replay=True),
    render=lambda scale, result: report(run(scale=scale, replay=True,
                                            result=result)),
))

register(Experiment(
    name="fig10-8wide",
    description="Section 5.4 — packing speedup at 8-wide decode",
    jobs=lambda scale: jobs(scale, decode_width=8),
    render=lambda scale, result: report(run(scale=scale, decode_width=8,
                                            result=result)),
))


if __name__ == "__main__":
    print(report(run()))
