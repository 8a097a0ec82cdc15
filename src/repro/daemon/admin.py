"""Admin operations: the "Administration area" of the paper's Figure 2.

High-level admin/monitoring actions over the daemon: device
maintenance, queue statistics, session management, QA triggering.
Separated from the service so the REST layer can gate every method on
the ADMIN role uniformly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..qpu.qa import QAJob

if TYPE_CHECKING:  # pragma: no cover
    from .service import MiddlewareDaemon

__all__ = ["AdminOperations"]


class AdminOperations:
    """Administrative façade over a running daemon."""

    def __init__(self, daemon: "MiddlewareDaemon") -> None:
        self.daemon = daemon

    # -- device ----------------------------------------------------------------

    def start_maintenance(self, resource: str) -> dict[str, Any]:
        device = self.daemon.hardware_device(resource)
        device.start_maintenance()
        return {"resource": resource, "status": device.status}

    def finish_maintenance(self, resource: str) -> dict[str, Any]:
        device = self.daemon.hardware_device(resource)
        device.finish_maintenance(self.daemon.now)
        return {
            "resource": resource,
            "status": device.status,
            "fidelity": device.calibration.fidelity_proxy(),
        }

    def run_qa(self, resource: str, shots: int = 200) -> dict[str, Any]:
        """Trigger the QA reference job (paper §3.4: hosting-site QA)."""
        device = self.daemon.hardware_device(resource)
        result = QAJob(shots=shots).run(device, now=self.daemon.now)
        return {
            "resource": resource,
            "score": result.score,
            "passed": result.passed,
            "details": result.details,
        }

    def recalibrate_if_degraded(self, resource: str, qa_threshold: float = 0.85) -> dict[str, Any]:
        """QA check; on failure run a maintenance+recalibration cycle."""
        device = self.daemon.hardware_device(resource)
        qa = QAJob(shots=200, threshold=qa_threshold).run(device, now=self.daemon.now)
        recalibrated = False
        if not qa.passed:
            device.start_maintenance()
            device.finish_maintenance(self.daemon.now)
            recalibrated = True
        return {"resource": resource, "qa_score": qa.score, "recalibrated": recalibrated}

    # -- queue / sessions -------------------------------------------------------

    def queue_stats(self) -> dict[str, Any]:
        queue = self.daemon.queue
        waits = self.daemon.scheduler.wait_times_by_class()
        return {
            "depth": queue.depth_by_class(),
            "completed": self.daemon.scheduler.tasks_completed,
            "preempted": self.daemon.scheduler.tasks_preempted,
            "mean_wait_by_class": {
                cls: (sum(v) / len(v) if v else None) for cls, v in waits.items()
            },
        }

    def list_sessions(self) -> list[dict[str, Any]]:
        return [
            {
                "session_id": s.session_id,
                "user": s.user,
                "priority_class": s.priority_class.label,
                "created_at": s.created_at,
                "tasks": len(s.task_ids),
            }
            for s in self.daemon.sessions.active()
        ]

    def close_session(self, session_id: str) -> dict[str, Any]:
        self.daemon.sessions.close(session_id)
        return {"session_id": session_id, "closed": True}

    def cancel_task(self, task_id: str) -> dict[str, Any]:
        self.daemon.queue.cancel(task_id)
        return {"task_id": task_id, "state": self.daemon.queue.get(task_id).state.value}

    def expire_idle_sessions(self) -> dict[str, Any]:
        expired = self.daemon.sessions.expire_idle(self.daemon.now)
        return {"expired": expired}

    # -- guarded low-level access ------------------------------------------------

    def lowlevel_read(self, resource: str) -> dict[str, float]:
        return self.daemon.lowlevel_for(resource).readable_parameters()

    def lowlevel_write(self, resource: str, name: str, value: float, actor: str) -> dict[str, Any]:
        control = self.daemon.lowlevel_for(resource)
        control.write(name, value, self.daemon.now, actor=actor)
        return {"resource": resource, "parameter": name, "value": value}
