"""INI-style problem configuration: parsing, validation, grid construction.

A config has four sections. ``[geometry]`` picks the domain family and
its node counts, ``[problem]`` holds the coefficient expressions and
boundary targets, ``[solver]`` selects the two-point backend and its
knobs, ``[output]`` says where and what to write. Expressions are parsed
eagerly against the declared variable set and numbers must be finite, so
malformed input fails at load time with the offending field named. So
does any other section, and any key the problem does not read, which
would otherwise fall back to its default (a field of ``ProblemConfig``).
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .geometry import Grid, build_annulus, build_rectangle
from .twopoint import MAX_ITER, MODES, ProblemSpec, allowed_backends


@dataclass(eq=False)
class ProblemConfig:
    family: str
    n1: int
    n2: int
    extent1: float          # width, or inner radius r1
    extent2: float          # height, or outer radius r2
    spec: ProblemSpec
    backend: str
    n_nodes: int = 1001
    tol: float = 1e-10
    max_iter: int | None = None     # None takes the backend's own cap
    damping: float = 1.0
    pivot_tol: float = 1e-10
    bracket_hints: tuple | None = None
    output_dir: str = "out"
    write_fields: bool = True
    write_fluxes: bool = False
    residual_limit: float | None = None

    def __post_init__(self):
        if self.tol <= 0 or self.pivot_tol <= 0:
            raise ConfigError(f"[solver] tol and pivot_tol must be positive, "
                              f"got {self.tol} and {self.pivot_tol}")
        if not 0.0 < self.damping <= 1.0:
            raise ConfigError(f"[solver] damping must lie in (0, 1], got {self.damping}")
        if self.max_iter is None:
            self.max_iter = MAX_ITER.get(self.backend)
        elif self.max_iter < 1:
            raise ConfigError(f"[solver] max_iter must be at least 1, got {self.max_iter}")

    def make_grid(self) -> Grid:
        if self.family == "annulus":
            return build_annulus(self.n1, self.n2, self.extent1, self.extent2)
        return build_rectangle(self.n1, self.n2, self.extent1, self.extent2)


class _Section:
    """Typed access to one config section with field-naming errors; it
    records the keys it is asked for, so the rest can be refused."""

    def __init__(self, parser, name):
        self.name = name
        if not parser.has_section(name):
            raise ConfigError(f"missing [{name}] section")
        self.sec = parser[name]
        self.read = set()

    def raw(self, key, required=False):
        self.read.add(key)
        if key in self.sec:
            return self.sec[key].strip()
        if required:
            raise ConfigError(f"[{self.name}] is missing '{key}'")
        return None

    def typed(self, key, cast, default=None, required=False):
        text = self.raw(key, required=required)
        if text is None:
            return default
        try:
            value = cast(text)
        except ValueError:
            raise ConfigError(f"[{self.name}] {key}: cannot parse '{text}'") from None
        if not all(map(math.isfinite, value if isinstance(value, tuple) else (value,))):
            raise ConfigError(f"[{self.name}] {key}: must be finite, got '{text}'")
        return value

    def floats(self, key, count):
        values = self.typed(key, lambda text: tuple(map(float, text.split())), required=True)
        if len(values) != count:
            raise ConfigError(f"[{self.name}] {key}: expected {count} values, got {len(values)}")
        return values

    def flag(self, key):
        text = self.raw(key)
        if text is None:
            return None
        states = configparser.ConfigParser.BOOLEAN_STATES     # configparser's spellings
        if text.lower() not in states:
            raise ConfigError(f"[{self.name}] {key}: expected a boolean, got '{text}'")
        return states[text.lower()]


def load_config(path) -> ProblemConfig:
    """Read and fully validate one problem configuration file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not UTF-8: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from None

    geo = _Section(parser, "geometry")
    family = geo.raw("family", required=True)
    if family not in ("rectangle", "annulus"):
        raise ConfigError(f"[geometry] family: unknown family '{family}'")
    n1 = geo.typed("n1", int, required=True)
    n2 = geo.typed("n2", int, required=True)
    if family == "rectangle":
        e1 = geo.typed("width", float, required=True)
        e2 = geo.typed("height", float, required=True)
    else:
        e1 = geo.typed("r1", float, required=True)
        e2 = geo.typed("r2", float, required=True)

    prob = _Section(parser, "problem")
    mode = prob.raw("mode", required=True)
    if mode not in MODES:
        raise ConfigError(f"[problem] mode: unknown mode '{mode}'")
    n = prob.typed("n", int, required=True)
    if not 1 <= n <= 9:
        raise ConfigError(f"[problem] n: must be between 1 and 9, got {n}")
    a = [[prob.raw(f"a{i+1}{j+1}", required=True) for j in range(n)] for i in range(n)]
    b_texts = [prob.raw(f"b{i+1}") for i in range(n)]
    if any(t is not None for t in b_texts) and any(t is None for t in b_texts):
        raise ConfigError("[problem] b coefficients must be given for all equations or none")
    b = None if b_texts[0] is None else list(b_texts)
    b_next = prob.raw("b_next")
    u_star = prob.floats("u_star", n)
    p_star = prob.typed("p_star", float, default=1.0)
    try:
        spec = ProblemSpec.from_strings(n, a, b=b, b_next=b_next,
                                        u_star=u_star, p_star=p_star, mode=mode)
    except ValueError as exc:
        raise ConfigError(f"[problem] {exc}") from None

    sol = _Section(parser, "solver")
    backend = sol.raw("backend", required=True)
    allowed = allowed_backends(spec)
    if backend not in allowed:
        raise ConfigError(
            f"[solver] backend '{backend}' is incompatible with this {spec.mode} problem "
            f"(allowed: {', '.join(allowed)})")
    # None marks a key left out, which takes ProblemConfig's default
    options = dict(n_nodes=sol.typed("n", int),
                   tol=sol.typed("tol", float), max_iter=sol.typed("max_iter", int),
                   pivot_tol=sol.typed("pivot_tol", float))
    # a backend's own options are read for it alone, so the others refuse them
    if backend == "fixed_point":
        options["damping"] = sol.typed("damping", float)
    if backend == "scalar_bisection":
        hints = {key: sol.typed(key, float) for key in ("r_integral", "q_integral")}
        if (hints["r_integral"] is None) != (hints["q_integral"] is None):
            raise ConfigError("[solver] bracket hints need both r_integral and q_integral")
        for key, value in hints.items():
            if value is not None and value <= 0.0:
                raise ConfigError(f"[solver] {key}: must be positive, got {value}")
        if hints["r_integral"] is not None:
            options["bracket_hints"] = tuple(hints.values())

    out = _Section(parser, "output")
    options.update(output_dir=out.raw("directory"), write_fields=out.flag("write_fields"),
                   write_fluxes=out.flag("write_fluxes"),
                   residual_limit=out.typed("residual_limit", float))
    sections = (geo, prob, sol, out)
    for name in parser.sections():
        if name not in [section.name for section in sections]:
            raise ConfigError(f"unknown section [{name}]")
    for section in sections:
        for key in section.sec:
            if key not in section.read:
                raise ConfigError(f"[{section.name}] {key}: not a key of this problem")
    return ProblemConfig(family=family, n1=n1, n2=n2, extent1=e1, extent2=e2, spec=spec,
                         backend=backend, **{k: v for k, v in options.items() if v is not None})
