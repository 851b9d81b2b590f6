"""The full command-line pipeline on a synthetic dataset.

synth -> fit -> contrast (connection and interaction) -> report, all via
the same entry point the installed `brainalign` command uses. The
connection contrast fires in the ROI whose signal the ablated condition
lost; the interaction contrast fires where the planted product component
lives.
"""

import json
import tempfile
from pathlib import Path

from brainalign.cli import main

with tempfile.TemporaryDirectory(prefix="brainalign_demo_") as tmp:
    root = Path(tmp)
    data, out = root / "data", root / "out"

    main(["synth", "--out", str(data), "--seed", "0", "--n-subjects", "3"])
    manifest = str(data / "manifest.json")
    main(["fit", "--manifest", manifest, "--out", str(out)])
    main([
        "contrast", "--manifest", manifest, "--out", str(out),
        "--mode", "connection", "--condition-a", "joint", "--condition-b", "lang_only",
    ])
    main([
        "contrast", "--manifest", manifest, "--out", str(out),
        "--mode", "interaction", "--condition-a", "joint", "--n-baseline", "5",
    ])
    main(["report", "--manifest", manifest, "--out", str(out)])

    mhash = json.loads(next((out / "report").iterdir()).joinpath("report.json").read_text())
    print("\ncondition table:")
    for row in mhash["rows"]:
        print(f"  {row['condition']:>12}: mean significant r = {row['mean_significant_correlation']}")

    for mode in ("connection", "interaction"):
        report = json.loads(
            next((out / "contrast").iterdir()).joinpath(mode, "report.json").read_text()
        )
        print(f"\n{mode} contrast:")
        for row in report["report"]["roi_rows"]:
            print(
                f"  {row['roi_name']:>16}: diff = {row['diff']:+.3f}, p = {row['p_value']:.4f}"
            )
