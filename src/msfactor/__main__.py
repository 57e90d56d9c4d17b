"""``python -m msfactor`` and the ``msfactor`` script: :mod:`msfactor.cli`
run as a program, so it sets its BLAS threads before numpy loads."""

import runpy


def main() -> None:
    runpy.run_module("msfactor.cli", run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main()
