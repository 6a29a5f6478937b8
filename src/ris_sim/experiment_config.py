"""Experiment configuration: one YAML tree covering every module, with
strict validation, round-trip serialization, and helpers that assemble the
per-module parameter objects.

CLI flags override file values before the whole configuration is checked;
every override is logged by the CLI so runs stay auditable.  All powers in
the file are dBm; conversion to watts happens here.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import yaml

from .channel import ChannelParams, pathloss_constant
from .geometry import TopologyConfig, Window, matern_parent_intensity
from .interference_analytic import REFLECTED_FORMS, LaplaceParams
from .mobility_sim import AbmConfig
from .montecarlo import LinkGeometry, SimulationSetup
from .outage_epidemic import OutageParams
from .power_analytic import gamma_fit_from_moments, s0_moments

__all__ = [
    "SIS_PANELS",
    "ConfigError",
    "SweepConfig",
    "ExperimentConfig",
    "dbm_to_watts",
    "load_config",
    "dump_config",
    "config_digest",
    "with_overrides",
]

SWEEP_AXES = ("power_dbm", "ue_density", "frequency_ghz", "ris_elements")

# the bound of each quantity that ExperimentConfig.expected_load yields, in
# the order it yields them.  A command pays only some of the amounts (named
# beside each row; r0-sweep pays none), and cli.main refuses a config with an
# amount above its bound that the running command pays, before its work
LOAD_BOUNDS = {
    # Matern parents and surfaces (topology, outage-sweep, validate-laplace)
    # or users (topology): one topology still fits in memory
    "expected points of one field": 1e7,
    # topology's users, Matern parents and surfaces, each counted at about 5
    # us (mostly its CSV row) as 1000 user x BS distances of about 5 ns: runs
    # just under the bound, each led by one of the four terms, took 3.5 to
    # 4.8 s on 2 vCPUs
    "expected topology distances": 1e9,
    # a field of lambda_b * area cells, or the target's own cell (outage-sweep,
    # validate-laplace)
    "expected moved users per trial": 1e7,
    "agents": 1e7,  # sis-sim agents of one run
    # one step call's chunk of runs at the densest panel (sis-sim): pair-sized
    # arrays near 160 MB each
    "expected agent contact pairs per step": 1e7,
    # max(abm_ensemble_runs, 60) x (abm_steps + 1) (sis-sim): the six panels'
    # int32 infected counts (240 MB), one float64 spread (80 MB), the ODE grids
    # at ten points per step (80 MB; their CSV rows are a tenth of that)
    "agent trajectory points": 1e7,
    # max(trials, 1000) x n_elements hops of one serving-power batch
    # (validate-power and outage-sweep draw it, validate-laplace never), about
    # 60 ns each: a run just under the bound took 5 minutes serially.  The
    # draw holds one row block of first and second hops per drawing thread
    # (the floor keeps a row at n_elements <= 5e6 hops, 80 MB, on each of at
    # most --threads and usable-CPU threads) and O(trials) powers and gains,
    # bounded by the trials range (MAX_TRIALS)
    "serving-hop draws": 5e9,
    # at lambda_b, where outage-sweep and validate-laplace sample (r0-sweep,
    # the only reader of the group_grid BS densities, samples nothing): the
    # two slots of the per-trial loop's buffer (montecarlo._field_draws),
    # near 80 MB each
    "expected BS x surface pairs per trial": 1e7,
    # a run just under either work bound took 2 to 5 minutes serially on 2
    # vCPUs (pair draws: outage-sweep and validate-laplace; agent-steps:
    # sis-sim)
    "expected Monte Carlo pair draws": 1e10,
    "expected agent-steps": 2e9,
}

# trials of any config: the O(trials) arrays of the serving batch and the
# ensembles (powers, gains, per-trial interference) stay near 40 MB each
MAX_TRIALS = 5_000_000

# the commands that sample the Matern and surface fields, and the two of them
# that run a Monte Carlo ensemble on those fields
_ENSEMBLES = ("outage-sweep", "validate-laplace")
_FIELDS = ("topology", *_ENSEMBLES)

# sis-sim panels (name, user density, initially infected fraction): three
# densities by 5/95 and 50/50 splits
SIS_PANELS = (
    ("a", 1e-3, 0.05),
    ("b", 5e-3, 0.05),
    ("c", 1e-2, 0.05),
    ("d", 1e-3, 0.50),
    ("e", 5e-3, 0.50),
    ("f", 1e-2, 0.50),
)


class ConfigError(ValueError):
    """Raised for malformed or inconsistent experiment configuration."""


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def _finite(v) -> bool:
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


# the kind of value each checked field annotation holds (a grid holds reals)
_CHECKED_TYPES = {"int": numbers.Integral, "float": numbers.Real, "tuple": numbers.Real,
                  "str": str}


def _check_numbers(config) -> None:
    """ConfigError naming the first int, float, grid or string field that
    holds something else, or a float or grid field that is not finite.
    PyYAML reads an exponent without a sign (``1.0e6``) as a string, and
    ``.nan`` or ``.inf`` as floats, which would otherwise fail deep inside a
    command."""
    for f in fields(config):
        kind = _CHECKED_TYPES.get(f.type)
        if kind is None:
            continue
        value = getattr(config, f.name)
        items = value if f.type == "tuple" else (value,)
        if not all(isinstance(v, kind) and not isinstance(v, bool) for v in items):
            expected = {"int": "an integer", "str": "a string"}.get(f.type, "numeric")
            raise ConfigError(f"{f.name} must be {expected}, got {value!r}")
        if f.type in ("float", "tuple") and not all(_finite(v) for v in items):
            raise ConfigError(f"{f.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class SweepConfig:
    """One sweep axis per experiment.  ``group_grid`` lists the BS densities
    (``lambda_b``) at which r0-sweep repeats the whole grid; empty, it runs
    the grid once at ``lambda_b``."""

    axis: str = "power_dbm"
    grid: tuple = (-20.0, -10.0, -5.0, 0.0, 10.0, 20.0, 30.0)
    group_grid: tuple = ()

    def __post_init__(self):
        _check_numbers(self)
        if self.axis not in SWEEP_AXES:
            raise ConfigError(f"sweep axis must be one of {SWEEP_AXES}, got {self.axis!r}")
        if len(self.grid) == 0:
            raise ConfigError("sweep grid must be nonempty")
        if list(self.grid) != sorted(self.grid):
            raise ConfigError("sweep grid must be sorted ascending")
        if self.axis == "ris_elements" and not all(float(v).is_integer() for v in self.grid):
            raise ConfigError(f"ris_elements grid values must be whole numbers, got {list(self.grid)}")

    def points(self) -> list[tuple[float, float | None]]:
        """(axis value, BS density) of every sweep point, group-major; the
        BS density is None without a ``group_grid``."""
        groups = self.group_grid or (None,)
        return [(a, g) for g in groups for a in self.grid]


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description."""

    seed: int = 12345
    trials: int = 100_000
    out_dir: str = "results"

    # deployment densities and radii
    lambda_b: float = 1e-5
    lambda_r: float = 1e-5
    lambda_u: float = 1e-2
    r_b: float = 50.0
    r_r: float = 10.0
    window_radius: float = 1000.0

    # radio parameters (powers in dBm); the path gain is pathloss_const,
    # except on a frequency sweep, which derives it from each grid carrier
    pathloss_const: float = 6.3326e-5
    alpha: float = 3.0
    m1: float = 2.0
    m2: float = 2.0
    n_elements: int = 200
    power_dbm: float = -5.0
    noise_dbm: float = -90.0
    sinr_threshold: float = 1e-2

    # representative serving-link geometry
    d_direct: float = 100.0
    d_bs_ris: float = 30.0
    d_ris_ue: float = 80.0

    # interference transform knobs
    d_min: float = 1.0
    d_max: float = 1000.0
    r_i: float = 10.0
    reflected_form: str = "affine"
    serving_mode: str = "pinned"

    # agent-based simulation
    abm_agents: int = 100
    abm_steps: int = 200
    abm_ensemble_runs: int = 100

    sweep: SweepConfig = field(default_factory=SweepConfig)

    def __post_init__(self):
        _check_numbers(self)
        if self.reflected_form not in REFLECTED_FORMS:
            raise ConfigError(
                f"reflected_form must be one of {REFLECTED_FORMS}, got {self.reflected_form!r}"
            )
        if self.serving_mode not in ("pinned", "associated"):
            raise ConfigError(f"serving_mode must be pinned or associated, got {self.serving_mode!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if not 1 <= self.trials <= MAX_TRIALS:
            raise ConfigError(f"trials must lie in [1, {MAX_TRIALS}], got {self.trials}")
        for name in ("n_elements", "abm_agents", "abm_steps", "abm_ensemble_runs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        # every parameter object a command builds, at every sweep point, so
        # that a bad value fails here and not inside a command
        try:
            # Matern type-II thinning retains under one BS per pi r_b^2 at
            # any parent intensity (the matern_parent_intensity test)
            if not self.lambda_b * (math.pi * self.r_b**2) < 1.0:
                raise ConfigError(
                    f"lambda_b={self.lambda_b} unreachable for r_b={self.r_b}: "
                    "lambda_b * pi * r_b^2 must be below 1"
                )
            # the Matern thinning's cell list (geometry.close_pairs) squares
            # the dilated window's span, which overflows above about 1.6e153:
            # below this bound that square and every squared distance stay
            # finite, with three decades to spare
            if not self.window_radius + self.r_b <= 1e150:
                raise ConfigError(
                    f"window_radius={self.window_radius} and r_b={self.r_b}: "
                    "window_radius + r_b must be at most 1e150"
                )
            self.simulation_setup()
            # a cluster wider than the window is not a deployment, nor one
            # under a millimetre, whose surfaces can round onto their BS
            if not 1e-3 <= self.r_r <= self.window_radius:
                raise ConfigError(
                    f"r_r must lie in [1e-3, window_radius={self.window_radius}], got {self.r_r}"
                )
            for point in self.sweep.points():
                self.sweep_outage_params(*point)
            self.outage_params()  # sis-sim's panels, at power_dbm itself
        except (ValueError, ArithmeticError) as exc:
            raise ConfigError(str(exc)) from exc

    @property
    def laplace_trials(self) -> int:
        """Trials of validate-laplace's ensemble: at least the 1000 that its
        Monte Carlo error bars need, and at most 1e5."""
        return min(max(self.trials, 1000), 100_000)

    def expected_load(self, command: str):
        """``(keys, amount, row)`` per amount of ``LOAD_BOUNDS`` that
        ``command`` pays, lazily and in its order: the keys that set the
        amount, with their values.  An amount the command does not pay is
        never evaluated, so a value it never reads cannot refuse it."""
        def keys(*names):
            return {name: getattr(self, name) for name in names}
        points = "expected points of one field"
        if command in _FIELDS:
            area = self.window().area()
            parents = (matern_parent_intensity(self.lambda_b, self.r_b)
                       * self.window().dilate(self.r_b).area())
            surfaces = self.lambda_r * area
            yield keys("lambda_b", "r_b", "window_radius"), parents, points
            yield keys("lambda_r", "window_radius"), surfaces, points
        if command == "topology":
            users = self.lambda_u * area
            yield keys("lambda_u", "window_radius"), users, points
            yield (keys("lambda_u", "lambda_b", "r_b", "lambda_r", "window_radius"),
                   1000 * (users + parents + surfaces) + users * self.lambda_b * area,
                   "expected topology distances")
        if command in _ENSEMBLES:
            movers = self.lambda_u * math.pi * self.r_i**2 * max(1.0, self.lambda_b * area)
            yield (keys("lambda_u", "r_i", "lambda_b", "window_radius"), movers,
                   "expected moved users per trial")
        if command == "sis-sim":
            yield keys("abm_agents"), self.abm_agents, "agents"
            abm = self.abm_config(lambda_u=max(lambda_u for _, lambda_u, _ in SIS_PANELS), x0=0)
            yield (keys("r_i", "abm_agents", "abm_ensemble_runs"), abm.expected_step_pairs(),
                   "expected agent contact pairs per step")
            yield (keys("abm_steps", "abm_ensemble_runs"),
                   max(self.abm_ensemble_runs, 10 * len(SIS_PANELS)) * (self.abm_steps + 1.0),
                   "agent trajectory points")
        if command in ("validate-power", "outage-sweep"):
            yield (keys("trials", "n_elements"), float(max(self.trials, 1000)) * self.n_elements,
                   "serving-hop draws")
        if command in _ENSEMBLES:
            pairs = self.lambda_b * area * surfaces
            yield (keys("lambda_b", "lambda_r", "window_radius"), pairs,
                   "expected BS x surface pairs per trial")
            # the trials the ensemble runs, and at least 1000, so that a short
            # run cannot hide a large cost per trial.  A trial costs about 40 us,
            # a Matern parent 0.5 us, a moved user 0.2 us and a pair 40 ns: 1000,
            # 12, 5 and 1 pair draws at each of two stages
            trials = self.laplace_trials if command == "validate-laplace" else max(self.trials, 1000)
            yield (keys("trials", "lambda_b", "r_b", "lambda_r", "lambda_u", "r_i", "window_radius"),
                   trials * 2.0 * (1000 + 12 * parents + 5 * movers + pairs),
                   "expected Monte Carlo pair draws")
        if command == "sis-sim":
            # an agent-step costs about 0.13 us, and 0.04 us (0.3 agent-steps)
            # more per contact pair of one agent at the densest panel
            contacts = abm.expected_step_pairs() / (abm.chunk_runs() * self.abm_agents)
            yield (keys("r_i", "abm_agents", "abm_steps", "abm_ensemble_runs"),
                   len(SIS_PANELS) * self.abm_ensemble_runs * self.abm_steps * self.abm_agents
                   * (1 + 0.3 * contacts), "expected agent-steps")

    def check_load(self, command: str) -> None:
        """ConfigError naming the keys, the amount and the row of the first
        amount that ``command`` pays above its bound in ``LOAD_BOUNDS``."""
        try:
            over = next(((keys, amount, row) for keys, amount, row in self.expected_load(command)
                         if not amount <= LOAD_BOUNDS[row]), None)
        except (ValueError, ArithmeticError) as exc:
            raise ConfigError(str(exc)) from exc
        if over is not None:
            keys, amount, row = over
            named = " and ".join(f"{key}={value}" for key, value in keys.items())
            raise ConfigError(f"{named} give {amount:.3g} {row}, above {LOAD_BOUNDS[row]:.0e}")

    # ---- derived parameter objects -------------------------------------

    @property
    def power_w(self) -> float:
        return dbm_to_watts(self.power_dbm)

    @property
    def sigma2_w(self) -> float:
        return dbm_to_watts(self.noise_dbm)

    def window(self) -> Window:
        return Window("disk", radius=self.window_radius)

    def topology_config(self) -> TopologyConfig:
        return TopologyConfig(
            lambda_b=self.lambda_b,
            lambda_r=self.lambda_r,
            lambda_u=self.lambda_u,
            r_b=self.r_b,
            r_r=self.r_r,
            window=self.window(),
        )

    def channel_params(self) -> ChannelParams:
        return ChannelParams(
            c=self.pathloss_const,
            alpha=self.alpha,
            m1=self.m1,
            m2=self.m2,
            n_elements=self.n_elements,
        )

    def laplace_params(self, **overrides) -> LaplaceParams:
        base = dict(
            lambda_b=self.lambda_b,
            lambda_r=self.lambda_r,
            lambda_u=self.lambda_u,
            c=self.pathloss_const,
            alpha=self.alpha,
            n_elements=self.n_elements,
            d_min=self.d_min,
            d_max=self.d_max,
            r_i=self.r_i,
        )
        base.update(overrides)
        return LaplaceParams(**base)

    def link_geometry(self) -> LinkGeometry:
        return LinkGeometry(self.d_direct, self.d_bs_ris, self.d_ris_ue)

    def serving_gamma_fit(self, c: float | None = None, n_elements: int | None = None):
        c = self.pathloss_const if c is None else c
        n = self.n_elements if n_elements is None else n_elements
        pl_d, pl_r = self.link_geometry().pathloss(c, self.alpha)
        return gamma_fit_from_moments(s0_moments(pl_d, pl_r, n, self.m1, self.m2))

    def outage_params(self, power_dbm: float | None = None, **laplace_overrides) -> OutageParams:
        c = laplace_overrides.get("c", self.pathloss_const)
        n = laplace_overrides.get("n_elements", self.n_elements)
        return OutageParams(
            fit=self.serving_gamma_fit(c=c, n_elements=n),
            threshold=self.sinr_threshold,
            power_w=dbm_to_watts(self.power_dbm if power_dbm is None else power_dbm),
            sigma2_w=self.sigma2_w,
            laplace=self.laplace_params(**laplace_overrides),
        )

    def sweep_outage_params(self, axis_value: float, group_value: float | None) -> OutageParams:
        """Outage parameters at one point of ``sweep.points()``.  A frequency
        sweep derives the path gain from each carrier, and shrinks the
        interference radius with the wavelength: ``r_i`` is its value at
        1 GHz."""
        overrides = {} if group_value is None else {"lambda_b": group_value}
        axis = self.sweep.axis
        if axis == "ue_density":
            overrides["lambda_u"] = axis_value
        elif axis == "ris_elements":
            overrides["n_elements"] = int(axis_value)
        elif axis == "frequency_ghz":
            overrides["c"] = pathloss_constant(axis_value * 1e9)
            overrides["r_i"] = self.r_i / axis_value
        else:
            overrides["power_dbm"] = axis_value
        return self.outage_params(**overrides)

    def simulation_setup(self) -> SimulationSetup:
        return SimulationSetup(
            topology=self.topology_config(),
            channel=self.channel_params(),
            link=self.link_geometry(),
            r_i=self.r_i,
            serving_mode=self.serving_mode,
        )

    def abm_config(self, lambda_u: float, x0: int,
                   beta: float = 0.1, mu: float = 0.1) -> AbmConfig:
        return AbmConfig(
            n_agents=self.abm_agents,
            x0=x0,
            r_i=self.r_i,
            beta=beta,
            mu=mu,
            steps=self.abm_steps,
            seed=self.seed,
            lambda_u=lambda_u,
            ensemble_runs=self.abm_ensemble_runs,
        )


def _to_plain(obj):
    if isinstance(obj, tuple):
        return [_to_plain(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _to_plain(v) for k, v in obj.items()}
    return obj


def dump_config(config: ExperimentConfig) -> str:
    return yaml.safe_dump(_to_plain(asdict(config)), sort_keys=True)


def _from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a mapping")
    known = {f.name for f in ExperimentConfig.__dataclass_fields__.values()}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(map(str, unknown))}")
    kwargs = dict(data)
    try:
        if "sweep" in kwargs and kwargs["sweep"] is not None:
            sw = kwargs["sweep"]
            if not isinstance(sw, dict):
                raise ConfigError("sweep must be a mapping")
            sweep_known = {f.name for f in SweepConfig.__dataclass_fields__.values()}
            sweep_unknown = set(sw) - sweep_known
            if sweep_unknown:
                raise ConfigError(f"unknown sweep keys: {sorted(map(str, sweep_unknown))}")
            grids = {k: tuple(sw[k]) for k in ("grid", "group_grid") if sw.get(k) is not None}
            kwargs["sweep"] = SweepConfig(**dict(sw, **grids))
        return ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(
    path: str | Path | None = None, text: str | None = None, overrides: dict | None = None
) -> ExperimentConfig:
    """Parse a YAML experiment file; defaults apply for absent keys.

    ``overrides`` (top-level keys) replace the file's values before the
    configuration is checked, so the check sees the values the run uses.
    """
    data = None
    if text is None and path is not None:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if text is not None:
        try:
            data = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigError(f"YAML parse error: {exc}") from exc
    if data is None:
        data = {}
    if overrides and isinstance(data, dict):
        data = dict(data, **overrides)
    return _from_dict(data)


def config_digest(config: ExperimentConfig) -> str:
    """Hash of every key but ``out_dir``: one configuration has one digest,
    whatever directory it writes to."""
    data = _to_plain(asdict(config))
    del data["out_dir"]
    return hashlib.sha256(yaml.safe_dump(data, sort_keys=True).encode()).hexdigest()[:16]


def with_overrides(config: ExperimentConfig, **overrides) -> ExperimentConfig:
    """Dataclass replace with ConfigError on bad values."""
    try:
        return replace(config, **{k: v for k, v in overrides.items() if v is not None})
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
