"""The polarspec CLI on interpreters without numpy: the avg-spectrum
golden reports byte for byte, a report whose numerators pass a lowered
int_max_str_digits limit, the refused argv of tests/test_report_cli.py
with their exit codes and messages, and the command-dispatch pins recorded
for the interpreter's exact version. Uses the standard library only; run
from anywhere, naming the interpreters to check (default: this one):

    python ci/numpy_free_cli.py [PYTHON ...]

Each PYTHON runs `-m polarspec.cli` from src/, in a temporary directory
holding the info-set files the refused rows name. Where it has no numpy, a
stub numpy package goes first on its path: the stub's spec resolves, so
`import polarspec` succeeds, and importing it raises, so a run that reaches
numpy's code fails with the stub's message. A refused row that reaches
numpy is listed by name, not counted as a problem. The tables are read
from the test module's source, never imported: it needs numpy, pytest and
hypothesis. Prints one line per interpreter, then each problem, and exits
1 on any problem.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = ROOT / "tests" / "test_report_cli.py"
GOLDEN = ROOT / "tests" / "golden"
LARGE = "avg-spectrum --n 4096 --k 2048 --construction pw"
STUB_MESSAGE = "numpy stub: this interpreter has no numpy"


def _tables() -> tuple[list[tuple[str, str]], dict, dict[str, str]]:
    """The avg-spectrum (golden file, argv) rows, the REFUSED table and
    the files the in_tmp fixture writes, from the test module's source."""
    tree = ast.parse(TESTS.read_text(encoding="utf-8"))
    goldens, files, namespace = [], {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and node.args and getattr(node.args[0], "value", None) == "golden, argv":
            goldens = [row for row in ast.literal_eval(node.args[1]) if row[1].startswith("avg-spectrum ")]
        if isinstance(node, ast.FunctionDef) and node.name == "in_tmp":
            for call in ast.walk(node):  # Path(name).write_text(text)
                if isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "write_text":
                    files[ast.literal_eval(call.func.value.args[0])] = ast.literal_eval(call.args[0])
    for node in tree.body:  # REFUSED and the tables it is built from
        target = node.targets[0] if isinstance(node, ast.Assign) else getattr(node, "target", None)
        if getattr(target, "id", None) in ("_USAGE_ERRORS", "_AT_1", "REFUSED"):
            exec(compile(ast.Module([node], []), str(TESTS), "exec"), namespace)
    return goldens, namespace["REFUSED"], files


def check(python: str) -> tuple[str, list[str]]:
    """One summary line for the interpreter, and its problems."""
    goldens, refused, files = _tables()
    version = subprocess.run([python, "-c", "import platform; print(platform.python_version())"],
                             capture_output=True, text=True, check=True).stdout.strip()
    has_numpy = subprocess.run([python, "-c", "import numpy"], capture_output=True).returncode == 0
    dispatch = json.loads((GOLDEN / "dispatch.json").read_text(encoding="utf-8"))
    pins = dispatch["pins"] if version in dispatch["recorded_on"] else {}
    problems = [] if goldens else [f"no avg-spectrum golden rows found in {TESTS.name}"]
    reach_numpy = []
    with tempfile.TemporaryDirectory(prefix="polarspec-numpy-free-") as tmp:
        work = Path(tmp)
        path = [str(ROOT / "src")]
        if not has_numpy:
            (work / "stub" / "numpy").mkdir(parents=True)
            (work / "stub" / "numpy" / "__init__.py").write_text(f"raise ImportError({STUB_MESSAGE!r})\n")
            path.insert(0, str(work / "stub"))
        for name, text in files.items():
            (work / name).write_text(text, encoding="utf-8")
        env = {k: v for k, v in os.environ.items() if not k.startswith("POLARSPEC_") and k != "PYTHONHOME"}
        env |= {"PYTHONPATH": os.pathsep.join(path), "PYTHONDONTWRITEBYTECODE": "1", "COLUMNS": "80"}

        def cli(argv: list[str], *flags: str) -> subprocess.CompletedProcess:
            return subprocess.run([python, *flags, "-m", "polarspec.cli", *argv], cwd=work, env=env,
                                  capture_output=True, check=False)

        for golden, argv in goldens:
            proc = cli(argv.split())
            if (proc.returncode, proc.stdout) != (0, (GOLDEN / golden).read_bytes()):
                problems.append(f"{argv}: exit {proc.returncode}, stdout differs from {golden}")
        # numerators of 908 digits, past a 640-digit limit where the interpreter has one
        full = [cli(LARGE.split(), *flags).stdout for flags in ((), ("-X", "int_max_str_digits=640"))]
        if not full[0] or full[0] != full[1]:
            problems.append(f"{LARGE}: stdout differs under -X int_max_str_digits=640")
        for name, (argv, code, message) in refused.items():
            proc = cli(argv.split())
            err = proc.stderr.decode()
            if STUB_MESSAGE in err:
                reach_numpy.append(name)
            elif (proc.returncode, proc.stdout) != (code, b"") or message not in err:
                problems.append(f"refused {name}: exit {proc.returncode}, stderr {err!r}")
        for name, pin in pins.items():
            proc = cli(pin["argv"])
            if [proc.returncode, proc.stdout.decode(), proc.stderr.decode()] != \
                    [pin["code"], pin["stdout"], pin["stderr"]]:
                problems.append(f"dispatch pin {name}: exit {proc.returncode}, output differs")
    summary = (f"{python} {version}, {'numpy' if has_numpy else 'numpy stub'}: {len(goldens)} goldens, "
               f"the digit-limit report, {len(refused) - len(reach_numpy)} refused rows and "
               f"{len(pins)} dispatch pins checked; refused rows that reach numpy: "
               f"{', '.join(reach_numpy) or 'none'}; {len(problems)} problems")
    return summary, problems


def main(argv: list[str]) -> int:
    failed = False
    for python in argv or [sys.executable]:
        summary, problems = check(python)
        print(summary, *problems, sep="\n  ", flush=True)
        failed |= bool(problems)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
