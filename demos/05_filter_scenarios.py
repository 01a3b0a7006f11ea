"""Filtering scenarios: from measured counts to a fidelity budget table.

Reproduces the three-row reference table from a config file, then shows
the same arithmetic driven by a filter chain instead of fixed fractions.
"""

import argparse
import os

from spdclum.config import resolve_config
from spdclum.emission import make_model
from spdclum.filters import (
    BandpassFilter,
    FilterChain,
    LongpassFilter,
    Polarizer,
    ScenarioSpec,
    TemporalGate,
    run_scenarios,
    transmit_luminescence,
    transmit_spdc,
)

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=os.path.join(HERE, "table.cfg"))
    args = parser.parse_args()

    cfg = resolve_config(args.config)
    model = cfg.build_model()
    chain = cfg.build_chain()
    specs = cfg.build_scenarios()
    print(f"{len(specs)} scenarios from {args.config}")
    results = run_scenarios(model, chain, specs,
                            window_ns=cfg.get("scenario.window_ns"),
                            spdc_rate_hz=cfg.get("scenario.spdc_rate_hz"))
    print(f"{'label':<30} {'SNR':>9} {'F':>8} {'F~':>8}")
    for r in results:
        print(f"{r.label:<30} {r.snr:>9.4f} {r.f_exact:>8.4f} "
              f"{r.f_approx:>8.4f}")
        for note in r.notes:
            print(f"  note: {note}")
    print()

    # the same budget from an explicit chain: polarizer, band, gate
    chain = FilterChain((Polarizer("aligned_to_spdc"),
                         BandpassFilter(534.0, 20.0, peak_transmission=1.0),
                         TemporalGate(10.0)))
    keep_s = transmit_spdc(chain, model)
    keep_l = transmit_luminescence(chain, model)
    print("polarizer + 534/20 bandpass + 10 ns gate:")
    print(f"  pair transmission {keep_s:.4f}, "
          f"luminescence transmission {keep_l:.6f}")
    spec = ScenarioSpec("chained", 2.225e10, 1.343e10, use_chain=True)
    row = run_scenarios(model, chain, [spec])[0]
    print(f"  SNR {row.snr:.2f}, fidelity {row.f_exact:.4f}")

    # moving the pump moves the pair line out of the band
    print("pair transmission of a fixed 534/20 band vs pump:")
    for pump in (250.0, 260.0, 267.0):
        probe = make_model(pump)
        band = BandpassFilter(534.0, 20.0, peak_transmission=1.0)
        keep = transmit_spdc(FilterChain((band,)), probe)
        print(f"  pump {pump:.0f} nm -> {keep:.4f}")


if __name__ == "__main__":
    main()
