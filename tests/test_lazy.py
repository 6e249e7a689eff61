import sys
import threading

from nlo_quanta._lazy import LazyModule


def test_concurrent_first_reads_wait_for_the_import(tmp_path, monkeypatch):
    # the module sleeps before it defines its attribute, so a read that did
    # not wait for the import to finish would raise AttributeError
    (tmp_path / "slow_lazy_target.py").write_text(
        "import time\ntime.sleep(0.2)\nvalue = object()\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    lazy = LazyModule("slow_lazy_target")
    results, errors = [], []

    def read():
        try:
            results.append(lazy.value)
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=read) for _ in range(8)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
        target = sys.modules.pop("slow_lazy_target", None)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(results) == 8 and all(r is target.value for r in results)
    # kept on the stand-in, so later reads skip the import system
    assert vars(lazy)["value"] is target.value
