"""Launch ``python -m repro serve`` as its own process and talk HTTP to it.

The server always runs in a separate process, so the load generator
and the server never share an interpreter lock.  The client is
stdlib ``http.client``: it keeps a connection open whenever the
server allows it and counts every connection it has to open.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import subprocess
import sys
import time

#: Deployment settings, identical on every workload and commit.  The
#: in-flight cap must admit one whole sweep batch (a batch weighs its
#: query count, and a batch above the cap is always refused).
SERVE_FLAGS = (
    "--worker-processes", "2", "--workers", "2", "--max-inflight", "512",
)

STARTUP_TIMEOUT = 60.0
STOP_TIMEOUT = 20.0


class Connection(http.client.HTTPConnection):
    """``HTTPConnection`` that counts the TCP connections it opens."""

    def __init__(self, port, timeout=120.0):
        super().__init__("127.0.0.1", port, timeout=timeout)
        self.opened = 0

    def connect(self):
        super().connect()
        self.opened += 1

    def call(self, method, path, body=None):
        """``(status, response bytes)``; status 0 when the socket failed."""
        headers = {"content-type": "application/json"} if body else {}
        try:
            self.request(method, path, body=body, headers=headers)
            response = self.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException) as err:
            self.close()
            return 0, str(err).encode()


def children_of(pid):
    """PIDs whose parent is ``pid`` (pool workers of a server)."""
    found = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % name, "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        fields = stat[stat.rfind(b")") + 2:].split()
        if int(fields[1]) == pid:
            found.append(int(name))
    return found


def pss_mb(pids):
    """Summed proportional set size of ``pids`` in MB."""
    total_kb = 0
    for pid in pids:
        try:
            with open("/proc/%d/smaps_rollup" % pid) as handle:
                for line in handle:
                    if line.startswith("Pss:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


class Server:
    """One ``repro serve`` process; ``setup_s`` is launch to first ready."""

    def __init__(self, root, workdir, graph_args):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        # Pool spool files land in the work directory, not system tmp.
        env["TMPDIR"] = workdir
        command = [
            sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
            "--port", "0", *SERVE_FLAGS, *graph_args,
        ]
        self._log = open(os.path.join(workdir, "serve.log"), "ab")
        start = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=self._log,
        )
        self.workers = []
        try:
            self.port = self._read_port(start + STARTUP_TIMEOUT)
            self._await_ready(start + STARTUP_TIMEOUT)
            self.setup_s = time.perf_counter() - start
            self.workers = children_of(self.process.pid)
        except BaseException:
            self.stop()
            raise

    def _read_port(self, deadline):
        buffer = b""
        stdout = self.process.stdout
        while time.perf_counter() < deadline:
            ready, _, _ = select.select([stdout], [], [], 0.05)
            if ready:
                chunk = os.read(stdout.fileno(), 4096)
                if not chunk:
                    break
                buffer += chunk
                for line in buffer.split(b"\n"):
                    if line.startswith(b"serving ") and b"http://" in line:
                        address = line.split(b"http://", 1)[1].split()[0]
                        return int(address.rsplit(b":", 1)[1])
            elif self.process.poll() is not None:
                break
        raise RuntimeError("repro serve did not announce a port: %r"
                           % buffer.decode(errors="replace"))

    def _await_ready(self, deadline):
        conn = Connection(self.port, timeout=5.0)
        try:
            while time.perf_counter() < deadline:
                status, body = conn.call("GET", "/healthz")
                if status == 200 and json.loads(body)["graphs"] >= 1:
                    return
                time.sleep(0.002)
        finally:
            conn.close()
        raise RuntimeError("repro serve never became healthy")

    def get(self, path):
        conn = Connection(self.port)
        try:
            status, body = conn.call("GET", path)
        finally:
            conn.close()
        if status != 200:
            raise RuntimeError("GET %s answered %d" % (path, status))
        return json.loads(body)

    def memory_mb(self):
        return pss_mb([self.process.pid, *children_of(self.process.pid)])

    def stop(self):
        """SIGTERM, wait; SIGKILL anything (server or worker) left over."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        for pid in self.workers:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                continue
            deadline = time.perf_counter() + STOP_TIMEOUT
            while os.path.exists("/proc/%d" % pid) and (
                    time.perf_counter() < deadline):
                time.sleep(0.01)
        self.process.stdout.close()
        self._log.close()
