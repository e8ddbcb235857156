"""Double buffering: overlapping the draw and update stages (paper §6.3.2).

Kernel calls are asynchronous (§2.2), so while the host draws simulation
step *n*, the device can already compute step *n+1* — provided the draw
data for step *n* lives in its own buffer.  "Using the CuPP framework,
the implementation was fairly easy.  We only had to add an additional
CuPP vector, so we have two vectors available to store the data required
to draw the agents."

The frame schedule is played out on a :class:`DeviceTimeline` with two
streams, the way the cuda-samples ``asyncAPI`` demo structures overlap:

* a **compute** stream carries the update kernels and the render pass
  (rendering occupies the same silicon as CUDA kernels, so it serializes
  with compute — that bound is why the paper's measured gains top out
  around 32% instead of the naive 2x);
* a **copy** stream carries the draw-matrix fetch, gated on an event
  recorded after the update kernel (``cudaStreamWaitEvent`` semantics:
  the fetch starts at its predecessor's completion) so the DMA rides the
  copy engine *while* the render runs.

* **without** double buffering a frame is strictly serial:
  launch update -> memcpy draw matrices (implicitly waits for the device)
  -> draw; the schedule only ever touches one queue, so it is
  arithmetically identical to the old serial device model.
* **with** double buffering the host draws step *n* (from buffer A) while
  the device computes step *n+1* (into buffer B) and the copy engine
  fetches step *n+1*'s matrices behind the render.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.bench.calibration import Calibration, DEFAULT_CALIBRATION
from repro.gpusteer.versions import DRAW_MATRIX_BYTES, update_time
from repro.obs import NULL_SPAN
from repro.simgpu.transfer import DeviceTimeline
from repro.steer.params import BoidsParams

_TRACER = obs.get_tracer()


@dataclass(frozen=True)
class FrameTimings:
    """Steady-state frame periods with and without double buffering."""

    n: int
    frame_without_s: float
    frame_with_s: float

    def __post_init__(self) -> None:
        if self.frame_without_s <= 0.0 or self.frame_with_s <= 0.0:
            raise ValueError(
                "frame periods must be positive, got "
                f"without={self.frame_without_s!r} with={self.frame_with_s!r}"
            )

    @property
    def fps_without(self) -> float:
        return 1.0 / self.frame_without_s

    @property
    def fps_with(self) -> float:
        return 1.0 / self.frame_with_s

    @property
    def improvement(self) -> float:
        """Fractional fps gain from double buffering (Fig. 6.4's y-axis)."""
        return self.frame_without_s / self.frame_with_s - 1.0


def _draw_components(
    n: int, calib: Calibration
) -> tuple[float, float]:
    """(host-overlappable, device-render) split of the draw stage."""
    total = calib.cpu_model().draw_seconds(n)
    host = total * calib.draw_overlappable_fraction
    return host, total - host


def simulate_frames(
    n: int,
    params: BoidsParams,
    *,
    double_buffered: bool,
    frames: int = 12,
    calib: Calibration = DEFAULT_CALIBRATION,
    version: int = 5,
    gl_interop: bool = False,
) -> float:
    """Play ``frames`` demo frames on a timeline; return the steady-state
    frame period (warm-up frames excluded; ``frames`` must be >= 1).

    ``gl_interop=True`` models the §3.2 OpenGL-interoperability path the
    paper left unused: the draw matrices stay on the device (the renderer
    reads a mapped buffer object), so fetching draw data costs only the
    map/unmap driver overhead instead of a PCIe transfer.
    """
    from repro.cuda.interop import MAP_OVERHEAD_S

    if frames < 1:
        raise ValueError(f"frames must be >= 1, got {frames}")

    update = update_time(version, n, params, calib=calib)
    draw_host, draw_render = _draw_components(n, calib)
    matrix_bytes = DRAW_MATRIX_BYTES * n

    tl = DeviceTimeline(calib.pcie_model())
    tl.launch_overhead_s = calib.launch_overhead_s
    compute = tl.create_stream()  # update kernels + render, in order
    copy = tl.create_stream()  # draw-matrix fetches on the DMA engine
    update_done = tl.create_event()
    frame_done = tl.create_event()
    stamps: list[float] = []

    def device_update() -> None:
        # Host-resident substages (v1-v4) run on the host clock; kernels
        # are enqueued asynchronously; input transfers block the host
        # (pageable cudaMemcpy, §2.2) and already include their per-call
        # overheads from the version cost model.
        with (
            _TRACER.span(
                "db.update",
                host_compute_s=update.host_compute_s,
                transfer_s=update.transfer_s,
                gpu_kernel_s=update.gpu_kernel_s,
            )
            if _TRACER.enabled
            else NULL_SPAN
        ):
            tl.host_work(update.host_compute_s)
            if update.transfer_s:
                tl.synchronize()  # implicit sync of input copies
                tl.host_work(update.transfer_s)
            if update.gpu_kernel_s:
                tl.stream_launch(compute, update.gpu_kernel_s)
            tl.record_event(update_done, compute)

    def fetch_draw_data() -> None:
        with (
            _TRACER.span(
                "db.fetch_draw", nbytes=matrix_bytes, gl_interop=gl_interop
            )
            if _TRACER.enabled
            else NULL_SPAN
        ):
            if gl_interop:
                # Map/unmap a registered buffer object: synchronize, no copy.
                tl.synchronize()
                tl.host_work(2 * MAP_OVERHEAD_S)
            elif double_buffered:
                # The fetch rides the copy engine once the update kernel
                # has produced the matrices — overlapped with the render
                # on the compute stream.  These are the overlapped bytes
                # Fig. 6.4's gain comes from.
                tl.stream_wait_event(copy, update_done)
                obs.record_transfer(
                    "stream-wait",
                    "none",
                    0,
                    moved=False,
                    label="draw-fetch<-update",
                )
                tl.stream_memcpy(copy, matrix_bytes)
                obs.record_transfer(
                    "double-buffer-overlap",
                    "d2h",
                    matrix_bytes,
                    label="draw-matrices",
                )
            else:
                tl.memcpy(matrix_bytes)
                obs.record_transfer(
                    "eager",
                    "d2h",
                    matrix_bytes,
                    label="draw-matrices",
                )

    def draw() -> None:
        with (
            _TRACER.span("db.draw", host_s=draw_host, render_s=draw_render)
            if _TRACER.enabled
            else NULL_SPAN
        ):
            tl.host_work(draw_host)
            # Rendering occupies the device itself: queue it like a
            # kernel, after the in-flight update on the compute stream.
            tl.stream_launch(compute, draw_render)

    if not double_buffered:
        loop_start = tl.host_time
        for frame in range(frames):
            with (
                _TRACER.span("db.frame", frame=frame, double_buffered=False)
                if _TRACER.enabled
                else NULL_SPAN
            ):
                device_update()
                fetch_draw_data()
                draw()
                tl.synchronize()  # frame ends when the render completes
            stamps.append(tl.host_time)
    else:
        device_update()  # pipeline priming: compute step 0
        fetch_draw_data()
        tl.stream_synchronize(copy)  # step 0's matrices before first draw
        loop_start = tl.host_time
        for frame in range(frames):
            with (
                _TRACER.span("db.frame", frame=frame, double_buffered=True)
                if _TRACER.enabled
                else NULL_SPAN
            ):
                device_update()  # step n+1 starts while we draw step n
                draw()
                tl.record_event(frame_done, compute)
                fetch_draw_data()  # step n+1's matrices, behind the render
                tl.event_synchronize(frame_done)  # render complete
                tl.stream_synchronize(copy)  # next buffer filled
            stamps.append(tl.host_time)

    # Steady-state period: average of the later frames.  The window
    # starts at the stamp preceding the tail — or at the loop start when
    # there is no earlier stamp (frames == 1), so a single frame yields
    # its own (warm-up-inclusive) period instead of a zero division.
    half = len(stamps) // 2
    tail = stamps[half:]
    start = stamps[half - 1] if half >= 1 else loop_start
    return (tail[-1] - start) / len(tail)


def compare(
    n: int,
    params: BoidsParams,
    calib: Calibration = DEFAULT_CALIBRATION,
    version: int = 5,
) -> FrameTimings:
    """Fig. 6.4's datapoint for one (population, think-frequency) cell."""
    return FrameTimings(
        n=n,
        frame_without_s=simulate_frames(
            n, params, double_buffered=False, calib=calib, version=version
        ),
        frame_with_s=simulate_frames(
            n, params, double_buffered=True, calib=calib, version=version
        ),
    )
