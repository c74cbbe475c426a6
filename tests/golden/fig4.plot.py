#!/usr/bin/env python3
"""Plot the error-disturbance tradeoff from fig4.csv (generated file)."""
import csv
from collections import defaultdict

import matplotlib.pyplot as plt

series = defaultdict(lambda: ([], []))
with open('fig4.csv', encoding="utf-8") as f:
    for row in csv.DictReader(f):
        eps2 = row["eps2_numeric"] or row["eps2_analytic"]
        eta2 = row["eta2_numeric"] or row["eta2_analytic"]
        if not eps2 or not eta2 or eps2 == "SINGULAR":
            continue
        xs, ys = series[row["model"]]
        xs.append(float(eps2))
        ys.append(float(eta2))

styles = {"hak-bound": "k--", "bot-bound": "k:"}
fig, ax = plt.subplots(figsize=(6, 4.5))
for name, (xs, ys) in sorted(series.items()):
    pts = sorted(zip(xs, ys))
    ax.plot([p[0] for p in pts], [p[1] for p in pts], styles.get(name, "-"), label=name)
ax.set_xscale("log")
ax.set_xlabel(r"square error $\epsilon^2$")
ax.set_ylabel(r"square disturbance $\eta^2$")
ax.set_ylim(0, 2.3)
ax.legend()
fig.tight_layout()
out = 'fig4.png'
fig.savefig(out, dpi=200)
print("wrote", out)
