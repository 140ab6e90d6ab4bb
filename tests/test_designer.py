"""Fiber-length design: the delay/dispersion 2x2 system and its edge cases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fransonsim import (
    ConfigurationError,
    DesignProblem,
    FiberSpec,
    InfeasibleDesignError,
    LEAF,
    SMF,
    solve_lengths,
    stack,
    stack_moments,
)


def nonlocal_problem(target=2.201795e-2):
    return DesignProblem(
        target_d_beta2_l_ps2=target,
        delta_t_ns=4.77,
        short_fiber=SMF,
        long_fibers=(LEAF, SMF),
        short_length_mm=1900.0,
    )


class TestSolveLengths:
    def test_known_compensating_arm(self):
        sol = solve_lengths(nonlocal_problem(target=2.2018e-2))
        # group-index slack: the as-built arm used 2695 mm LEAF + 180 mm SMF
        assert sol.lengths_mm[0] == pytest.approx(2695.0, rel=0.05)
        assert sol.lengths_mm[1] == pytest.approx(180.0, rel=0.05)
        assert abs(sol.achieved_d_beta2_l_ps2 - 2.2018e-2) <= 1e-5
        assert abs(sol.achieved_delay_ns - 4.77) <= 1e-3

    def test_local_zero(self):
        sol = solve_lengths(nonlocal_problem(target=0.0))
        assert all(l > 0 for l in sol.lengths_mm)
        # forward substitution through stack_moments
        long = stack((LEAF, sol.lengths_mm[0]), (SMF, sol.lengths_mm[1]))
        short = stack((SMF, 1900.0))
        assert abs(stack_moments(long, short).d_beta2_l_ps2) <= 1e-5

    def test_round_trip_random_targets(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            target = rng.uniform(-5e-3, 3e-2)
            dt = rng.uniform(2.0, 8.0)
            prob = DesignProblem(
                target_d_beta2_l_ps2=target,
                delta_t_ns=dt,
                short_fiber=SMF,
                long_fibers=(LEAF, SMF),
                short_length_mm=rng.uniform(500.0, 2500.0),
            )
            try:
                sol = solve_lengths(prob)
            except InfeasibleDesignError:
                continue
            long = stack((LEAF, sol.lengths_mm[0]), (SMF, sol.lengths_mm[1]))
            short = stack((SMF, prob.short_length_mm))
            d = stack_moments(long, short)
            assert abs(d.d_beta2_l_ps2 - target) <= 1e-5
            delay = long.group_delay_ns() - short.group_delay_ns()
            assert abs(delay - dt) <= 1e-3

    @settings(max_examples=200, deadline=None)
    @given(
        short_mm=st.floats(0.0, 5000.0),
        surplus_mm=st.floats(50.0, 5000.0),
        share=st.floats(0.0, 1.0),
        fibers=st.sampled_from([(LEAF, SMF), (SMF, LEAF)]),
        short_fiber=st.sampled_from([SMF, LEAF]),
    )
    def test_round_trip_property(self, short_mm, surplus_mm, share, fibers, short_fiber):
        # lengths -> (delay, dispersion) through the forward model -> lengths
        total = short_mm + surplus_mm
        lengths = (share * total, (1.0 - share) * total)
        long = stack(*zip(fibers, lengths))
        short = stack((short_fiber, short_mm))
        prob = DesignProblem(
            target_d_beta2_l_ps2=stack_moments(long, short).d_beta2_l_ps2,
            delta_t_ns=long.group_delay_ns() - short.group_delay_ns(),
            short_fiber=short_fiber,
            long_fibers=fibers,
            short_length_mm=short_mm,
        )
        sol = solve_lengths(prob)
        assert sol.fibers == (fibers[0].name, fibers[1].name)
        assert sol.lengths_mm == pytest.approx(lengths, rel=1e-9, abs=1e-6)
        assert abs(sol.achieved_d_beta2_l_ps2 - prob.target_d_beta2_l_ps2) <= 1e-5
        assert abs(sol.achieved_delay_ns - prob.delta_t_ns) <= 1e-3
        rebuilt = stack_moments(sol.long_stack(prob), short)
        assert rebuilt.d_beta2_l_ps2 == sol.achieved_d_beta2_l_ps2

    def test_scaling_linearity(self):
        base = DesignProblem(
            target_d_beta2_l_ps2=-1e-2,
            delta_t_ns=3.0,
            short_fiber=SMF,
            long_fibers=(LEAF, SMF),
            short_length_mm=0.0,
        )
        doubled = DesignProblem(
            target_d_beta2_l_ps2=-2e-2,
            delta_t_ns=6.0,
            short_fiber=SMF,
            long_fibers=(LEAF, SMF),
            short_length_mm=0.0,
        )
        a = solve_lengths(base)
        b = solve_lengths(doubled)
        assert b.lengths_mm[0] == pytest.approx(2 * a.lengths_mm[0], rel=1e-12)
        assert b.lengths_mm[1] == pytest.approx(2 * a.lengths_mm[1], rel=1e-12)

    def test_sign_symmetry(self):
        # negating every beta2 and the target flips the dispersion equation
        # wholesale and must return the same lengths
        plus = solve_lengths(nonlocal_problem(target=2.2018e-2))
        flipped = DesignProblem(
            target_d_beta2_l_ps2=-2.2018e-2,
            delta_t_ns=4.77,
            short_fiber=FiberSpec("SMF-flipped", +22.5),
            long_fibers=(FiberSpec("LEAF-flipped", +6.19), FiberSpec("SMF-flipped", +22.5)),
            short_length_mm=1900.0,
        )
        minus = solve_lengths(flipped)
        assert minus.lengths_mm[0] == pytest.approx(plus.lengths_mm[0], rel=1e-12)
        assert minus.lengths_mm[1] == pytest.approx(plus.lengths_mm[1], rel=1e-12)


class TestErrors:
    def test_single_fiber_type_is_singular(self):
        # one fiber type cannot satisfy a delay and an independent
        # dispersion target: the system loses rank
        prob = DesignProblem(
            target_d_beta2_l_ps2=0.0,
            delta_t_ns=4.77,
            short_fiber=SMF,
            long_fibers=(SMF, SMF),
            short_length_mm=1900.0,
        )
        with pytest.raises(ConfigurationError):
            solve_lengths(prob)

    def test_infeasible_carries_unconstrained_solution(self):
        prob = nonlocal_problem(target=1.0)  # far beyond any positive-length reach
        with pytest.raises(InfeasibleDesignError) as exc_info:
            solve_lengths(prob)
        lengths = exc_info.value.unconstrained_lengths_mm
        assert lengths is not None
        assert min(lengths) < 0

    def test_wrong_fiber_count(self):
        with pytest.raises(ConfigurationError):
            DesignProblem(
                target_d_beta2_l_ps2=0.0,
                delta_t_ns=4.77,
                short_fiber=SMF,
                long_fibers=(LEAF,),
                short_length_mm=1900.0,
            )

    def test_bad_delta_t(self):
        for delta_t in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ConfigurationError):
                DesignProblem(
                    target_d_beta2_l_ps2=0.0,
                    delta_t_ns=delta_t,
                    short_fiber=SMF,
                    long_fibers=(LEAF, SMF),
                    short_length_mm=1900.0,
                )
