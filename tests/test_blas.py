import os
import subprocess
import sys

import numpy as np
import pytest

from roadgame.blas import _openblas_threads, one_thread


def test_one_thread_restores_the_count_after_an_error():
    found = _openblas_threads()
    if found is None:
        pytest.skip("this numpy bundles no OpenBLAS")
    get, _ = found
    before = get()
    with pytest.raises(RuntimeError):
        with one_thread():
            assert get() == 1
            raise RuntimeError
    assert get() == before


def test_one_thread_pins_a_two_thread_openblas():
    code = ("from roadgame.blas import _openblas_threads, one_thread\n"
            "found = _openblas_threads()\n"
            "if found is None:\n"
            "    print('none')\n"
            "else:\n"
            "    get, _ = found\n"
            "    counts = [get()]\n"
            "    with one_thread():\n"
            "        counts.append(get())\n"
            "    counts.append(get())\n"
            "    print(counts)\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "OPENBLAS_NUM_THREADS": "2"})
    assert result.returncode == 0, result.stderr
    if result.stdout.strip() == "none":
        pytest.skip("this numpy bundles no OpenBLAS")
    assert result.stdout.strip() == "[2, 1, 2]"


def test_one_thread_leaves_eigh_unchanged():
    rng = np.random.default_rng(0)
    m = rng.random((64, 64))
    m = m + m.T
    values, vectors = np.linalg.eigh(m)
    with one_thread():
        pinned = np.linalg.eigh(m)
    assert np.array_equal(values, pinned[0]) and np.array_equal(vectors, pinned[1])


@pytest.mark.parametrize("given, expected", [(None, "24"), ("28", "28")], ids=["unset", "user"])
def test_import_sets_the_openblas_thread_timeout_before_numpy_loads(given, expected):
    # OpenBLAS reads the variable once, as numpy loads it, so the value seen
    # when the import of numpy starts is the one that counts
    code = ("import os, sys\n"
            "seen = []\n"
            "class Spy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'numpy':\n"
            "            seen.append(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))\n"
            "sys.meta_path.insert(0, Spy())\n"
            "import roadgame\n"
            "print(seen[:1], os.environ['OPENBLAS_THREAD_TIMEOUT'])\n")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    if given is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = given
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == f"[{expected!r}] {expected}"
