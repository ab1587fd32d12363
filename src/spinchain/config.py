"""Run configuration: file grammar, validation, canonical hashing.

Configs are INI files with the sections [model], [initial], [time],
[partitions], [scan], [output]; every key can be overridden by the
command-line flag of the same name.  Unknown sections or keys are
rejected with field-level messages rather than ignored, so a typo cannot
silently change an experiment.
"""

import configparser
import dataclasses
import hashlib
import math
from dataclasses import dataclass
from importlib import resources

from .errors import ConfigError
from .model import ModelSpec

FORMATS = ("csv", "json")
PRESET_NAMES = ("fig2", "fig3", "fig4", "smoke")
# where and how results are written; not part of the experiment identity
_OUTPUT_FIELDS = ("out_dir", "formats", "precision")

__all__ = ["RunConfig", "load_config", "preset_path"]


def _parse_bool(text, where):
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{where}: expected a boolean, got {text!r}")


def _parse_float(text, where):
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{where}: expected a number, got {text!r}") from None


def _parse_int(text, where):
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{where}: expected an integer, got {text!r}") from None


def _parse_alpha_list(text, where):
    """Comma list of exponents; the token 'nn' selects the nearest-neighbour limit."""
    alphas = []
    nn = False
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if tok.lower() == "nn":
            nn = True
        else:
            alphas.append(_parse_float(tok, where))
    return tuple(alphas), nn


def _parse_site_list(text, where):
    if not text.strip():
        return None
    return tuple(_parse_int(tok, where) for tok in text.split(","))


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters of one experiment run."""

    n_sites: int = 12
    j0: float = 1.0
    alphas: tuple = ()
    nn_limit: bool = False
    paper_n_sites: int | None = None

    initial_state: str = "neel"
    initial_site: int | None = None

    t_max: float = 5.0
    n_points: int = 101
    kac_rescaled: bool = False

    strategy: str = "quarters"
    sizes: tuple | None = None
    subset_a: tuple | None = None
    subset_b: tuple | None = None
    subset_c: tuple | None = None

    inset_alphas: tuple = ()
    tau_threshold: float = 1e-10

    out_dir: str = "runs"
    formats: tuple = ("csv",)
    precision: int = 12

    def __post_init__(self):
        if self.n_sites < 2:
            raise ConfigError(f"model.n_sites: need at least 2 sites, got {self.n_sites}")
        if self.j0 <= 0 or not math.isfinite(self.j0):
            raise ConfigError(f"model.j0: must be positive and finite, got {self.j0}")
        if not self.alphas and not self.nn_limit:
            raise ConfigError("model.alphas: at least one coupling exponent (or 'nn') required")
        for a in self.alphas:
            if not math.isfinite(a) or a < 0:
                raise ConfigError(f"model.alphas: exponent {a} must be finite and >= 0")
        if self.paper_n_sites is not None and self.paper_n_sites < 2:
            raise ConfigError(f"model.paper_n_sites: need at least 2 sites, got {self.paper_n_sites}")
        if self.initial_state not in ("neel", "single"):
            raise ConfigError(f"initial.state: expected 'neel' or 'single[:site]', got {self.initial_state!r}")
        if self.initial_site is not None and not 0 <= self.initial_site < self.n_sites:
            raise ConfigError(
                f"initial.state: site {self.initial_site} outside [0, {self.n_sites})")
        if self.t_max <= 0 or not math.isfinite(self.t_max):
            raise ConfigError(f"time.t_max: must be positive and finite, got {self.t_max}")
        if self.n_points < 2:
            raise ConfigError(f"time.n_points: need at least 2 points, got {self.n_points}")
        triple = (self.subset_a, self.subset_b, self.subset_c)
        if any(s is not None for s in triple) and any(s is None for s in triple):
            raise ConfigError("partitions.a/b/c: give all three subsets or none")
        for fmt in self.formats:
            if fmt not in FORMATS:
                raise ConfigError(f"output.formats: expected csv/json, got {fmt!r}")
        if not self.formats:
            raise ConfigError("output.formats: need at least one format")
        if not 1 <= self.precision <= 17:
            raise ConfigError(f"output.precision: expected 1..17, got {self.precision}")
        if self.tau_threshold < 0:
            raise ConfigError(f"scan.tau_threshold: must be >= 0, got {self.tau_threshold}")

    # -- sweep helpers ---------------------------------------------------

    def sweep(self):
        """(label, ModelSpec) per coupling exponent, 'nn' last if present."""
        out = [(f"{a:g}", ModelSpec(self.n_sites, j0=self.j0, alpha=a))
               for a in self.alphas]
        if self.nn_limit:
            out.append(("nn", ModelSpec(self.n_sites, j0=self.j0, nn_limit=True)))
        return out

    def resolved_site(self) -> int:
        """Initial site of a single-excitation run (middle site by default)."""
        return self.initial_site if self.initial_site is not None else self.n_sites // 2

    def replace(self, **kw) -> "RunConfig":
        return dataclasses.replace(self, **kw)

    # -- provenance ------------------------------------------------------

    def canonical_string(self, include_output: bool = True) -> str:
        """Deterministic flat rendering of every field, for hashing and logs."""

        def fmt(v):
            if isinstance(v, float):
                return f"{v:.12g}"
            if isinstance(v, tuple):
                return ",".join(fmt(x) for x in v)
            return str(v)

        fields = sorted(dataclasses.asdict(self).items())
        if not include_output:
            fields = [(k, v) for k, v in fields if k not in _OUTPUT_FIELDS]
        return "\n".join(f"{k}={fmt(v)}" for k, v in fields)

    def config_hash(self) -> str:
        """Short digest identifying the experiment.

        Output destination and formatting are excluded: the same run
        written elsewhere is the same experiment, and emitted files stay
        byte-identical across output directories.
        """
        text = self.canonical_string(include_output=False)
        return hashlib.sha256(text.encode()).hexdigest()[:12]


_SCHEMA = {
    "model": ("n_sites", "j0", "alphas", "nn_limit", "paper_n_sites"),
    "initial": ("state",),
    "time": ("t_max", "n_points", "kac_rescaled"),
    "partitions": ("strategy", "sizes", "a", "b", "c"),
    "scan": ("inset_alphas", "tau_threshold"),
    "output": ("directory", "formats", "precision"),
}


def _read_ini(path) -> dict:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from None
    values = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, val in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {section}.{key}")
            values[f"{section}.{key}"] = val
    return values


def _apply(values: dict) -> RunConfig:
    kw = {}
    for dotted, text in values.items():
        section, key = dotted.split(".", 1)
        where = dotted
        if dotted == "model.n_sites":
            kw["n_sites"] = _parse_int(text, where)
        elif dotted == "model.j0":
            kw["j0"] = _parse_float(text, where)
        elif dotted == "model.alphas":
            alphas, nn = _parse_alpha_list(text, where)
            kw["alphas"] = alphas
            if nn:
                kw["nn_limit"] = True
        elif dotted == "model.nn_limit":
            if _parse_bool(text, where):
                kw["nn_limit"] = True
        elif dotted == "model.paper_n_sites":
            kw["paper_n_sites"] = _parse_int(text, where)
        elif dotted == "initial.state":
            state, _, site = text.strip().lower().partition(":")
            kw["initial_state"] = state
            if site:
                kw["initial_site"] = _parse_int(site, where)
        elif dotted == "time.t_max":
            kw["t_max"] = _parse_float(text, where)
        elif dotted == "time.n_points":
            kw["n_points"] = _parse_int(text, where)
        elif dotted == "time.kac_rescaled":
            kw["kac_rescaled"] = _parse_bool(text, where)
        elif dotted == "partitions.strategy":
            kw["strategy"] = text.strip()
        elif dotted == "partitions.sizes":
            kw["sizes"] = _parse_site_list(text, where)
        elif dotted == "partitions.a":
            kw["subset_a"] = _parse_site_list(text, where)
        elif dotted == "partitions.b":
            kw["subset_b"] = _parse_site_list(text, where)
        elif dotted == "partitions.c":
            kw["subset_c"] = _parse_site_list(text, where)
        elif dotted == "scan.inset_alphas":
            alphas, _ = _parse_alpha_list(text, where)
            kw["inset_alphas"] = alphas
        elif dotted == "scan.tau_threshold":
            kw["tau_threshold"] = _parse_float(text, where)
        elif dotted == "output.directory":
            kw["out_dir"] = text.strip()
        elif dotted == "output.formats":
            kw["formats"] = tuple(t.strip().lower() for t in text.split(",") if t.strip())
        elif dotted == "output.precision":
            kw["precision"] = _parse_int(text, where)
        else:
            raise ConfigError(f"unknown key {dotted}")
    return RunConfig(**kw)


def preset_path(name: str):
    """Filesystem path of a bundled preset config."""
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    return resources.files("spinchain").joinpath("presets", f"{name}.cfg")


def load_config(source=None, overrides=None) -> RunConfig:
    """Build a RunConfig from a file path, preset name, or nothing.

    ``overrides`` maps dotted keys ('model.n_sites') to raw value strings,
    applied on top of the file; they use the same parsers, so flag and
    file values cannot diverge in meaning.
    """
    values = {}
    if source is not None:
        import os
        source = str(source)
        if os.path.exists(source):
            values = _read_ini(source)
        elif source in PRESET_NAMES:
            with resources.as_file(preset_path(source)) as p:
                values = _read_ini(p)
        else:
            raise ConfigError(f"config {source!r} is neither a file nor a preset name")
    if overrides:
        for dotted, text in overrides.items():
            section, _, key = dotted.partition(".")
            if section not in _SCHEMA or key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {dotted}")
            values[dotted] = text
    return _apply(values)
