"""One benchmark job in a fresh process.

Every job runs in its own interpreter, so the package's per-process caches
(``precision._context``, ``words._shuffle_cached``, ``omega._gl_cache``)
start empty, as they do for a command-line user.  Untraced alpha
repetitions do not come here: they run ``python -m lawsonarea`` itself.

    python3 perfbench/child.py probe
    python3 perfbench/child.py build '{"depth": 7, "digits": 40, "cache_dir": "D"}' [--trace FILE]
    python3 perfbench/child.py triangle '{"digits": 30, "angles": ["pi/6"], "words": [[1]]}' [--trace FILE]
    python3 perfbench/child.py cli '["expand", "--order", "5", ...]' --trace FILE

The package is reached only through module attributes such as
``lawsonarea.omega.build_table``, never through the re-exports of
``lawsonarea/__init__``, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import json
import sys
import time
from importlib import metadata
from pathlib import Path

from tracer import Tracer


def probe() -> dict:
    """Import the whole package; report where it came from and the versions."""
    import lawsonarea
    import lawsonarea.cli  # noqa: F401
    import mpmath
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"package": lawsonarea.__file__,
            "python": sys.version.split()[0], "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND, "numpy": numpy_version}


def build(spec: dict) -> int:
    from lawsonarea import omega
    from lawsonarea.precision import PrecisionConfig
    omega.cached_table("1", "pi/4", spec["depth"], PrecisionConfig(spec["digits"]),
                       Path(spec["cache_dir"]))
    return 0


def triangle(spec: dict) -> int:
    """Each word integral at 1 by transport, quadrature and polylogarithms."""
    import mpmath
    from lawsonarea import mpl, omega
    from lawsonarea.precision import PrecisionConfig
    cfg = PrecisionConfig(spec["digits"])
    ctx = cfg.context
    words = [tuple(w) for w in spec["words"]]
    shown = cfg.working_digits + 10
    rows = []
    for phi in spec["angles"]:
        table = omega.build_table("1", phi, max(len(w) for w in words), cfg)
        phi_value = omega.parse_phi(phi, cfg)
        for word in words:
            routes = (table.value(word),
                      omega.quadrature_oracle(word, "1", phi, cfg),
                      mpl.convert_word(word, phi_value, cfg).value(cfg))
            rows.append({"phi": phi, "word": list(word),
                         "routes": [[mpmath.nstr(ctx.re(v), shown),
                                     mpmath.nstr(ctx.im(v), shown)] for v in routes]})
    print(json.dumps(rows))
    return 0


def cli(argv: list) -> int:
    from lawsonarea import cli as cli_module
    return cli_module.main(argv)


def install(tracer: Tracer) -> None:
    """Spans and counters at the layer boundaries the benchmark reports."""
    from lawsonarea import cli, engine, laurent, mpl, omega

    def count_words(table):
        tracer.count("omega.words", sum(1 for w in table.words() if w))

    def count_lookup(table):
        tracer.count("omega.cache.misses" if table is None else "omega.cache.hits")

    tracer.span(cli, "main", "cli.main")
    tracer.span(omega, "cached_table")
    tracer.span(omega, "load_table", on_result=count_lookup)
    tracer.span(omega, "save_table")
    tracer.span(omega, "build_table", on_result=count_words)
    tracer.span(omega, "chen_compose")
    tracer.span(omega, "quadrature_oracle")
    tracer.span(omega, "gauss_legendre_rule")
    tracer.counter(omega, "parse_phi")
    tracer.span(engine, "run")
    tracer.span(engine, "advance", lambda state, *a, **k: f"engine.advance.o{state.order + 1}")
    tracer.span(engine, "frame_lower", lambda n, *a, **k: f"engine.frame_lower.o{n}")
    tracer.span(engine, "area_series")
    tracer.method_counter(laurent.LaurentPoly, "__init__", "laurent.polys_created")
    tracer.method_span(laurent.LaurentMatrix2, "add_scaled_constant",
                       "laurent.add_scaled_constant")
    tracer.span(mpl, "li")
    tracer.span(mpl, "convert_word",
                on_result=lambda terms: tracer.count("mpl.convert_word.terms", len(terms)))


def traced(job, arg) -> tuple[int, dict]:
    """Run one job under the tracer; the wrappers are removed before returning."""
    start = time.process_time()
    import lawsonarea.cli  # noqa: F401
    import_s = time.process_time() - start
    tracer = Tracer()
    try:
        install(tracer)
        code = job(arg)
    finally:
        tracer.restore()
    return code, dict(tracer.report(), import_s=import_s,
                      leftover=tracer.leftover_wrappers())


JOBS = {"build": build, "triangle": triangle, "cli": cli}


def main(argv: list[str]) -> int:
    if argv[:1] == ["probe"]:
        print(json.dumps(probe()))
        return 0
    job, arg = JOBS[argv[0]], json.loads(argv[1])
    if argv[2:3] != ["--trace"]:
        return job(arg)
    code, report = traced(job, arg)
    Path(argv[3]).write_text(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
