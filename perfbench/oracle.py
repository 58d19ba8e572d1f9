"""Output checks that share no code path with the package.

Each check reads the files one CLI call wrote and recomputes what it can
from the benchmark's own arrays (``inputs.Instance``) with numpy and
scipy.sparse: residuals of the two walk systems, the Nash identity, the
epsilon bound, the greedy sparsify prefix, the trajectory size and tail
bound, generated edge sets, and the core-periphery closed forms.  A check
returns None when the output is right and a one-line reason otherwise.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from inputs import Instance, core_periphery_graph

EPS = np.finfo(float).eps


def _close(x, y, rtol: float) -> bool:
    return np.allclose(np.asarray(x, dtype=float), np.asarray(y, dtype=float),
                       rtol=rtol, atol=0.0)


def _parse_spec(spec: str) -> dict[str, str]:
    return dict(item.split("=") for item in spec.split(":", 1)[1].split(","))


class Oracle:
    """Checks for one workload; the centrality check stores the verified
    a and b that the nash, epsilon and sparsify checks then use."""

    def __init__(self, instance: Instance, market: dict,
                 core_periphery: tuple[int, int, float] | None = None):
        self.instance = instance
        self.alpha = market["alpha"]
        self.price = market["price"]
        self.beta = market["beta"]
        self.delta = market["delta"]
        self.tol = market["tol"]
        self.low = self.delta * (1.0 - self.beta)
        self.high = self.delta * (1.0 + self.beta)
        self.kappa = (self.delta * (self.alpha - self.price)
                      / (2.0 * self.price * (1.0 - self.delta)))
        self.core_periphery = core_periphery
        self.gt = instance.matrix().T.tocsr()
        self.a = self.b = None

    def check(self, command: str, args: tuple[str, ...], out: Path) -> str | None:
        try:
            return getattr(self, "_" + command.replace("-", "_"))(args, out)
        except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
            return f"{command}: cannot check the output ({type(exc).__name__}: {exc})"

    # -- helpers -----------------------------------------------------------

    def _c_new(self) -> np.ndarray:
        if self.a is None:
            raise ValueError("no verified centrality before this check")
        return 0.5 * (self.a + self.b)

    def _closed_form_role(self, m: int, g: float) -> tuple[float, float]:
        """(c_role, b_role) on a core-periphery graph; peripheries have a = b = 1."""
        q_low, q_high = self.low * g, self.high * g
        a_role = (1.0 + (m - 1) * q_low) / (1.0 - q_low)
        b_role = (1.0 + (m - 1) * q_high) / (1.0 - q_high)
        return 0.5 * (a_role + b_role), b_role

    def _tau(self, c2: np.ndarray, inside: np.ndarray, kappa_b: float) -> float:
        return float(c2[~inside].sum()) / (kappa_b + float(c2[inside].sum()))

    # -- one method per CLI command ------------------------------------------

    def _centrality(self, args, out: Path):
        report = json.loads((out / "centrality.json").read_text())
        a, b = np.asarray(report["a"]), np.asarray(report["b"])
        if a.shape != (self.instance.n,) or b.shape != a.shape:
            return "centrality: wrong vector length"
        if report["attenuations"] != [self.low, self.high]:
            return f"centrality: attenuations {report['attenuations']}"
        for name, x, coeff in (("a", a, self.low), ("b", b, self.high)):
            residual = float(np.abs(1.0 - (x - coeff * (self.gt @ x))).max())
            limit = self.tol + 64 * EPS * float(np.abs(x).max())
            if not residual <= limit:
                return f"centrality: residual of {name} is {residual:.3g} > {limit:.3g}"
            if x.min() < 1.0 - 1e-12:
                return f"centrality: {name} has an entry below 1"
        if not (_close(report["c_new"], 0.5 * (a + b), 1e-15)
                and np.allclose(report["c_cross"], 0.5 * (b - a), rtol=1e-15, atol=1e-15)):
            return "centrality: c_new or c_cross is not the average or half difference of a, b"
        self.a, self.b = a, b
        return None

    def _nash(self, args, out: Path):
        report = json.loads((out / "equilibrium.json").read_text())
        target = self.price * self._c_new()
        nash = report["nash"]
        if not (_close(nash["s_bar"], target, 1e-12) and _close(nash["s_under"], target, 1e-12)):
            return "nash: seeding differs from price * c_new"
        if report["seeding"] != nash:
            return "nash: reported seeding is not the Nash seeding"
        baseline = self.price * (2.0 * self.kappa * self.price) * float(self.b.sum())
        if not _close(report["utilities"]["firm_a"]["baseline"], baseline, 1e-9):
            return "nash: zero-seeding baseline differs from price * r * 1'b"
        return None

    def _epsilon(self, args, out: Path):
        report = json.loads((out / "equilibrium.json").read_text())
        wanted = sorted(int(i) for i in args[args.index("--sets") + 1].split(","))
        eps = report["epsilon"]
        if eps["sets"] != {"bar": wanted, "under": wanted}:
            return f"epsilon: sets {eps['sets']} are not {wanted}"
        # epsilon_paper from the report's own c_new and baseline:
        # kappa * 1'b = baseline / (2 price^2)
        c = np.asarray(report["nash"]["s_bar"]) / self.price
        if not _close(c, self._c_new(), 1e-12):
            return "epsilon: reported c_new differs from the verified centrality"
        inside = np.zeros(c.size, dtype=bool)
        inside[np.asarray(wanted) - 1] = True
        kappa_b = report["utilities"]["firm_a"]["baseline"] / (2.0 * self.price ** 2)
        tau = self._tau(c ** 2, inside, kappa_b)
        if not _close(eps["epsilon_paper"], tau, 1e-9):
            return f"epsilon: epsilon_paper {eps['epsilon_paper']!r} != recomputed {tau!r}"
        if not _close(report["seeding"]["s_bar"], self.price * c * inside, 1e-15):
            return "epsilon: seeding is not price * c_new restricted to the set"
        return None

    def _sparsify(self, args, out: Path):
        report = json.loads((out / "sparsify.json").read_text())
        target = float(args[args.index("--epsilon-target") + 1])
        chosen = report["sets"]["bar"]
        if report["sets"]["under"] != chosen or report["set_size"] != len(chosen):
            return "sparsify: the two firms' sets differ"
        c2 = self._c_new() ** 2
        n = c2.size
        order = np.lexsort((np.arange(n), -c2))
        k = len(chosen)
        if chosen != sorted(int(i) + 1 for i in order[:k]):
            return f"sparsify: the {k} chosen agents are not the greedy prefix"
        kappa_b = self.kappa * float(self.b.sum())
        inside = np.zeros(n, dtype=bool)
        inside[order[:k]] = True
        slack = 1e-9 * target
        if self._tau(c2, inside, kappa_b) > target + slack:
            return "sparsify: the chosen prefix misses the target"
        if k > 0:
            inside[order[k - 1]] = False
            if self._tau(c2, inside, kappa_b) <= target - slack:
                return "sparsify: a shorter prefix already meets the target"
        if report["epsilon"]["epsilon_paper"] > target:
            return "sparsify: reported epsilon_paper exceeds the target"
        return None

    def _simulate(self, args, out: Path):
        report = json.loads((out / "trajectory.json").read_text())
        horizon, n = report["horizon"], self.instance.n
        with (out / "trajectory.csv").open("rb") as handle:
            rows = sum(chunk.count(b"\n") for chunk in iter(lambda: handle.read(1 << 22), b"")) - 1
        if rows != (horizon + 1) * n:
            return f"simulate: {rows} trajectory rows, expected (horizon+1)*n = {(horizon + 1) * n}"
        if not report["tail_bound"] <= report["config"]["tail_tol"]:
            return f"simulate: tail bound {report['tail_bound']!r} above tail_tol"
        if self.core_periphery is not None:
            chi, m, g = self.core_periphery
            c = np.ones(n)
            c[np.arange(1, chi + 1) * m - 1] = self._closed_form_role(m, g)[0]
        else:
            c = self._c_new()
        if not (_close(report["seeding"]["s_bar"], self.price * c, 1e-9)
                and _close(report["seeding"]["s_under"], self.price * c, 1e-9)):
            return "simulate: Nash seeding differs from price * c_new"
        return None

    def _generate(self, args, out: Path):
        spec = args[args.index("--generate") + 1]
        meta = json.loads((out / "generate.json").read_text())
        lines = [t for t in (out / "graph.edges").read_text().splitlines()
                 if t and not t.startswith("#")]
        n = int(lines[0].removeprefix("n="))
        fields = np.array(" ".join(lines[1:]).split(), dtype=float).reshape(-1, 3)
        rows, cols, weights = fields[:, 0].astype(int) - 1, fields[:, 1].astype(int) - 1, fields[:, 2]
        if meta["n"] != n or meta["edge_count"] != len(rows):
            return "generate: generate.json disagrees with graph.edges"
        params = _parse_spec(spec)
        if spec.startswith("core-periphery"):
            chi, m, g = int(params["chi"]), int(params["m"]), float(params["g"])
            ref = core_periphery_graph(chi, m, g)
            order = np.lexsort((ref.cols, ref.rows))
            if not (n == ref.n and np.array_equal(rows, ref.rows[order])
                    and np.array_equal(cols, ref.cols[order])
                    and np.array_equal(weights, ref.weights)):
                return "generate: core-periphery edges differ from the closed layout"
            return None
        d, weight = int(params["d"]), float(params["weight"])
        if n != int(params["n"]) or rows.min() < 0 or max(rows.max(), cols.max()) >= n:
            return "generate: ids outside 1..n"
        if np.any(rows == cols) or np.unique(rows * n + cols).size != rows.size:
            return "generate: self-loop or duplicate pair"
        if np.any(weights != weight) or np.bincount(cols, minlength=n).max() > d:
            return "generate: a weight or an out-degree breaks the spec"
        return None

    def _asr_scan(self, args, out: Path):
        report = json.loads((out / "asr_verdict.json").read_text())
        params = _parse_spec(args[args.index("--family") + 1])
        chi, g = int(params["chi"]), float(params["g"])
        schedule = [int(s) for s in args[args.index("--schedule") + 1].split(",")]
        records = report["records"]
        if [r["size"] for r in records] != schedule or report["verdict"] != "decreasing-toward-zero":
            return f"asr-scan: sizes or verdict ({report['verdict']}) wrong"
        for record, m in zip(records, schedule):
            c_role, b_role = self._closed_form_role(m, g)
            tau = chi * (m - 1) / (self.kappa * chi * (b_role + m - 1) + chi * c_role ** 2)
            if (record["n"] != chi * m or record["set_size"] != chi
                    or not _close(record["epsilon_paper"], tau, 1e-9)):
                return f"asr-scan: record at m={m} differs from the closed form ({tau!r})"
        csv_rows = (out / "asr_scan.csv").read_text().count("\n") - 1
        if csv_rows != len(schedule):
            return f"asr-scan: {csv_rows} csv rows"
        return None

    def _verify(self, args, out: Path):
        report = json.loads((out / "verify.json").read_text())
        checks = report["checks"]
        if not report["passed"] or len(checks) != 6 or not all(c["passed"] for c in checks):
            return f"verify: {sum(c['passed'] for c in checks)}/{len(checks)} checks passed"
        return None
