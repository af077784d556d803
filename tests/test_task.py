"""Unit tests for TaskStruct: state machine, weights, program stepping."""

import pytest

from repro.simkernel import Kernel
from repro.simkernel.errors import TaskLifecycleError
from repro.simkernel.program import Run
from repro.simkernel.task import (
    NICE_0_WEIGHT,
    TaskState,
    TaskStruct,
    weight_for_nice,
)


def _noop():
    yield Run(10)


class TestWeights:
    def test_nice_zero(self):
        assert weight_for_nice(0) == NICE_0_WEIGHT == 1024

    def test_extremes(self):
        assert weight_for_nice(-20) == 88761
        assert weight_for_nice(19) == 15

    def test_each_step_is_about_25_percent(self):
        # Linux's table is built so one nice level ~= 1.25x CPU share.
        for nice in range(-20, 19):
            ratio = weight_for_nice(nice) / weight_for_nice(nice + 1)
            assert 1.15 < ratio < 1.35

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            weight_for_nice(-21)
        with pytest.raises(ValueError):
            weight_for_nice(20)


class TestStateMachine:
    def _task(self):
        return TaskStruct(1, _noop)

    def test_initial_state(self):
        assert self._task().state is TaskState.NEW

    def test_legal_path(self):
        task = self._task()
        task.set_state(TaskState.RUNNABLE)
        task.set_state(TaskState.RUNNING)
        task.set_state(TaskState.BLOCKED)
        task.set_state(TaskState.RUNNABLE)
        task.set_state(TaskState.RUNNING)
        task.set_state(TaskState.DEAD)

    def test_new_cannot_run_directly(self):
        task = self._task()
        with pytest.raises(TaskLifecycleError):
            task.set_state(TaskState.RUNNING)

    def test_dead_is_terminal(self):
        task = self._task()
        task.set_state(TaskState.RUNNABLE)
        task.set_state(TaskState.DEAD)
        with pytest.raises(TaskLifecycleError):
            task.set_state(TaskState.RUNNABLE)

    def test_blocked_cannot_block(self):
        task = self._task()
        task.set_state(TaskState.RUNNABLE)
        task.set_state(TaskState.RUNNING)
        task.set_state(TaskState.BLOCKED)
        with pytest.raises(TaskLifecycleError):
            task.set_state(TaskState.BLOCKED)


class TestProgram:
    def test_cannot_start_twice(self):
        task = TaskStruct(1, _noop)
        task.start_program()
        with pytest.raises(TaskLifecycleError):
            task.start_program()

    def test_cannot_step_before_start(self):
        kernel = Kernel()
        with pytest.raises(TaskLifecycleError):
            kernel.interp.advance_program(TaskStruct(1, _noop))


class TestAffinity:
    def test_default_allows_everything(self):
        task = TaskStruct(1, _noop)
        assert task.can_run_on(0)
        assert task.can_run_on(79)

    def test_restricted(self):
        task = TaskStruct(1, _noop, allowed_cpus={2, 3})
        assert task.can_run_on(2)
        assert not task.can_run_on(0)

    def test_set_nice_updates_weight(self):
        task = TaskStruct(1, _noop)
        task.set_nice(19)
        assert task.weight == 15
