"""Child-process entry point: run one ``ris-sim`` command as the console
script does, and leave timestamps (and, when traced, spans) in a JSON file.

    python3 shim.py --stamp <file> [--trace] -- <ris-sim arguments>

Untraced, the only addition to the user's process is one wrapper around
``ris_sim.cli.load_config`` that reads the clock when the config has been
loaded, which marks the end of set-up.  Traced, ``tracer`` wraps the public
functions of each layer before the command starts.
"""

import json
import sys
import time


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1:]
    stamp_path = own[own.index("--stamp") + 1]
    traced = "--trace" in own

    stamps = {}
    from ris_sim import cli

    stamps["imported"] = time.monotonic()
    tracer = None
    if traced:
        import tracer as tracer_module  # beside this file, so on sys.path[0]

        tracer = tracer_module.install()

    load_config = getattr(cli, "load_config", None)
    if load_config is not None:
        def stamped_load_config(*args, **kwargs):
            cfg = load_config(*args, **kwargs)
            stamps["config_loaded"] = time.monotonic()
            return cfg

        cli.load_config = stamped_load_config
    try:
        code = cli.main(cli_args)
    finally:
        record = {"stamps": stamps}
        if tracer is not None:
            record["trace"] = tracer.dump()
        with open(stamp_path, "w") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
