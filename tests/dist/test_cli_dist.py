"""CLI surface of the dist stack: endpoints, flag validation, fleets.

The fleet tests pin the cleanup contract: an interrupt mid-fleet must
terminate every worker child instead of orphaning it.
"""

import signal
import subprocess
import threading

import pytest

from repro.cli import _fleet_cleanup, _parse_endpoint, main
from repro.errors import MelodyError


class TestParseEndpoint:
    def test_bare_port_defaults_host(self):
        assert _parse_endpoint("8080") == ("127.0.0.1", 8080)

    def test_host_and_port(self):
        assert _parse_endpoint("0.0.0.0:9999") == ("0.0.0.0", 9999)

    def test_port_zero_means_ephemeral(self):
        assert _parse_endpoint(":0") == ("127.0.0.1", 0)

    @pytest.mark.parametrize("bad", ["", "host:", "nope", "1.2.3.4:70000"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(MelodyError):
            _parse_endpoint(bad)


class TestCampaignFlagValidation:
    def test_coordinator_rejects_job_id(self, capsys, tmp_path):
        # The coordinator finalizes the campaign-wide checkpoint; a
        # job-scoped follow-up pass would miss it and rerun quarantined
        # cells locally.
        code = main([
            "campaign", "--coordinator", ":0", "--job-id", "j1",
            "--cache-dir", str(tmp_path),
        ])
        assert code == 2
        assert "--job-id" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--shards", "2"], ["--shard", "0/2"]])
    def test_shard_flags_are_gone(self, flags, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "--cache-dir", str(tmp_path), *flags])
        assert excinfo.value.code == 2

    def test_coordinator_requires_cache_dir(self, capsys):
        code = main(["campaign", "--coordinator", ":0"])
        assert code == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_dist_workers_floor(self, capsys, tmp_path):
        code = main([
            "campaign", "--coordinator", ":0", "--dist-workers", "0",
            "--cache-dir", str(tmp_path),
        ])
        assert code == 2
        assert "--dist-workers" in capsys.readouterr().err

    def test_worker_endpoint_validated(self, capsys):
        code = main(["worker", "--connect", "not-an-endpoint"])
        assert code == 2
        assert "endpoint" in capsys.readouterr().err


class FakeProc:
    """A subprocess stand-in recording lifecycle calls."""

    def __init__(self, code=0, running=False, stubborn=False):
        self.code = code
        self.running = running
        self.stubborn = stubborn
        self.terminated = False
        self.killed = False

    def poll(self):
        return None if self.running else self.code

    def wait(self, timeout=None):
        if self.stubborn and timeout is not None and not self.killed:
            raise subprocess.TimeoutExpired(cmd="fake", timeout=timeout)
        self.running = False
        return self.code

    def terminate(self):
        self.terminated = True

    def kill(self):
        self.killed = True


class TestFleetCleanup:
    def test_interrupt_terminates_running_children(self):
        runner, done = FakeProc(running=True), FakeProc(code=0)
        with pytest.raises(KeyboardInterrupt):
            with _fleet_cleanup() as fleet:
                fleet.add(runner)
                fleet.add(done)
                raise KeyboardInterrupt()
        assert runner.terminated and not runner.killed
        assert not done.terminated  # already exited: reaped, not signaled

    def test_stubborn_child_is_killed_after_grace(self):
        stubborn = FakeProc(running=True, stubborn=True)
        with _fleet_cleanup() as fleet:
            fleet.add(stubborn)
        assert stubborn.terminated and stubborn.killed

    def test_sigterm_remapped_to_keyboard_interrupt(self):
        if threading.current_thread() is not threading.main_thread():
            pytest.skip("signal handlers only install on the main thread")
        before = signal.getsignal(signal.SIGTERM)
        with _fleet_cleanup():
            handler = signal.getsignal(signal.SIGTERM)
            assert handler is not before
            with pytest.raises(KeyboardInterrupt):
                handler(signal.SIGTERM, None)
        assert signal.getsignal(signal.SIGTERM) is before

    def test_clean_exit_touches_nothing(self):
        done = FakeProc(code=0)
        with _fleet_cleanup() as fleet:
            fleet.add(done)
        assert not done.terminated and not done.killed
