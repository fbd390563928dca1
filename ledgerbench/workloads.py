"""The three benchmark workloads, each a closed loop of synchronous rounds.

Every workload goes through the same five steps, each timed by the
episode runner: ``imports`` (module loading), ``data`` (dataset
generation), ``build`` (model, channel, fabric or cluster driver),
``run`` (the timed training phase) and ``result`` (outputs and checks).
Every random draw is seeded from the benchmark's ``--seed`` or from a
fixed recipe constant; nothing reads the host clock to decide what to
compute, so every modeled number and every count repeats exactly for a
fixed seed.
"""

from __future__ import annotations

import json
import math
import threading
from pathlib import Path
from typing import Dict, List

from ledger import Recorder, install_packet_path

HERE = Path(__file__).resolve().parent
SCENARIO = HERE / "cluster_contended.json"

#: ``grad_nmse`` ceiling on ddp-fabric: RHT decodes a trimmed coordinate
#: from its one-bit head, so roughly 9 % trimmed packets cost well under
#: this; a broken decode path lands near or above 1.
FABRIC_NMSE_BOUND = 0.25
#: Trim probability of the fig3-trim channel (the Fig. 3 panel at 10 %).
FIG3_TRIM_RATE = 0.1


def _mean(values) -> float:
    """Order-independent mean: job threads append in any order."""
    return math.fsum(values) / max(1, len(values))


def _nmse(sent, delivered) -> float:
    import numpy as np

    diff = delivered - sent
    return float(np.dot(diff, diff) / max(float(np.dot(sent, sent)), 1e-300))


class Workload:
    """Shared bookkeeping for transfers: NMSE, failures, FCT."""

    name = ""

    def __init__(self, seed: int, rec: Recorder) -> None:
        self.seed = seed
        self.rec = rec
        self.nmse: List[float] = []
        self.fcts_s: List[float] = []
        self.bad_transfers = 0
        self.attempted = 0
        self.failed = 0
        self.checks: List[str] = []
        self._lock = threading.Lock()

    def record_transfer(self, sent, delivered) -> None:
        value = _nmse(sent, delivered)
        with self._lock:
            if math.isfinite(value):
                self.nmse.append(value)
            else:
                self.bad_transfers += 1

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.checks.append(message)

    def wrap_channel(self, channel) -> None:
        """Record the NMSE of every delivered gradient the channel returns."""
        transfer = channel.transfer
        stats = channel.stats

        def recorded(flat, **kwargs):
            surrendered = stats.rounds_surrendered
            out = transfer(flat, **kwargs)
            if stats.rounds_surrendered == surrendered:
                self.record_transfer(flat, out)
            return out

        channel.transfer = recorded

    def trainer_outputs(self, trainer) -> Dict[str, float]:
        records = trainer.history.records
        losses = [r.train_loss for r in records]
        self.check(
            all(math.isfinite(x) for x in losses) and not trainer.history.diverged,
            f"training loss not finite: {losses}",
        )
        self.check(
            len(losses) >= 2 and losses[-1] < losses[0],
            f"final-epoch loss {losses[-1]} not below first-epoch loss {losses[0]}",
        )
        return {"final_loss": losses[-1], "final_top1": records[-1].top1}

    def transfer_totals(self, stats) -> Dict[str, float]:
        """NMSE and FCT means; sets the attempted and failed counts."""
        self.attempted = stats.messages
        self.failed = stats.rounds_surrendered + self.bad_transfers
        return {
            "grad_nmse": _mean(self.nmse),
            "fct_ms_mean": 1e3 * _mean(self.fcts_s),
        }


class Fig3Trim(Workload):
    """The Fig. 3 recipe: vgg-mini, 50 classes, 2 workers, RHT, 10 % trim.

    The recipe's constants are those of ``repro.bench.experiments``
    (``training_dataset``, ``_make_model``, ``run_training``), but the
    trainer gets no time model: ``experiments.time_model()`` measures
    codec throughput on the host, which would make modeled seconds drift
    with host speed.  Its FCT is the time model's own transfer formula
    (base RTT plus wire bytes over the link rate) on the bytes each
    message really carried after trimming.

    The seed draws the congestion: the RHT rotations and the trim
    pattern.  The dataset, initial weights and batch order are the
    recipe's own (seeds 0, 1 and 0), because after two epochs top-1 on
    this 50-class task swings by a factor of three with them (0.054 to
    0.148 over five seeds), which would drown any change in the program.
    ``--seed 0`` is exactly the recipe's
    ``run_training("rht", 0.1, 3)`` run.

    ``final_top1`` is measured after the timed phase on
    ``HELDOUT_PER_CLASS`` test images per class of the same task.  After
    two epochs, top-1 spread 27 % across ten seeds (IQR over median) on
    the recipe's 10 per class and 14 to 34 % on 60 per class.  After
    three, the third at the recipe's decayed learning rate, 11 %.
    """

    HELDOUT_PER_CLASS = 60

    name = "fig3-trim"
    epochs = 3
    data_seed, model_seed, loader_seed = 0, 1, 0

    def imports(self) -> None:
        import repro.collectives  # noqa: F401
        import repro.core  # noqa: F401
        import repro.nn  # noqa: F401
        import repro.train  # noqa: F401

    def data(self) -> None:
        from repro.nn import make_dataset

        self.train_set, self.test_set = make_dataset(
            num_classes=50,
            train_per_class=40,
            test_per_class=10,
            image_size=12,
            noise=2.5,
            seed=self.data_seed,
        )

    def build(self) -> None:
        from repro.collectives import AllReduceHook
        from repro.core import RHTCodec
        from repro.nn import make_vgg
        from repro.train import DDPTrainer, TimingConfig, TrainConfig, TrimChannel

        model = make_vgg(
            "vgg-mini",
            num_classes=50,
            image_size=12,
            batch_norm=False,
            classifier_width=64,
            seed=self.model_seed,
        )
        codec = RHTCodec(root_seed=self.seed + 3, row_size=4096)
        self.channel = TrimChannel(codec, FIG3_TRIM_RATE, seed=self.seed + 5)
        self._wrap_fct(TimingConfig())
        config = TrainConfig(
            epochs=self.epochs,
            batch_size=16,
            lr=0.05,
            momentum=0.9,
            step_size=max(2, self.epochs * 5 // 8),
            gamma=0.2,
            seed=self.loader_seed,
            augment=False,
        )
        self.trainer = DDPTrainer(
            model,
            self.train_set,
            self.test_set,
            world_size=2,
            hook=AllReduceHook(self.channel),
            config=config,
            codec_name="rht",
            trim_rate=FIG3_TRIM_RATE,
        )

    def _wrap_fct(self, timing) -> None:
        self.wrap_channel(self.channel)
        transfer = self.channel.transfer
        stats = self.channel.stats

        def timed(flat, **kwargs):
            sent = stats.bytes_sent
            out = transfer(flat, **kwargs)
            wire_bits = 8 * (stats.bytes_sent - sent)
            self.fcts_s.append(timing.base_rtt_s + wire_bits / timing.bandwidth_bps)
            return out

        self.channel.transfer = timed

    def run(self) -> None:
        self.trainer.train()

    def result(self) -> Dict[str, float]:
        from repro.nn import make_dataset
        from repro.nn.metrics import evaluate

        out = self.trainer_outputs(self.trainer)
        _, heldout = make_dataset(
            num_classes=50,
            train_per_class=1,
            test_per_class=self.HELDOUT_PER_CLASS,
            image_size=12,
            noise=2.5,
            seed=self.data_seed,
        )
        out["final_top1"] = evaluate(self.trainer.model, heldout)[1]
        stats = self.channel.stats
        out.update(self.transfer_totals(stats))
        n, k = stats.packets_total, stats.packets_trimmed
        band = 4.0 * math.sqrt(FIG3_TRIM_RATE * (1 - FIG3_TRIM_RATE) / max(1, n))
        self.check(
            n > 0 and abs(k / n - FIG3_TRIM_RATE) <= band,
            f"trimmed share {k}/{n} outside {FIG3_TRIM_RATE} +- {band:.4f}",
        )
        self.check(
            self.rec.counts.get("net.events", 0) == 0,
            "fig3-trim ran the packet simulator",
        )
        self.check(self.failed == 0, f"{self.failed} failed transfers")
        return out


class DDPFabric(Workload):
    """DDPTrainer whose every gradient crosses a congested trimming dumbbell.

    The fabric is the congested dumbbell of the NetworkChannel tests:
    single-level trimming switches, 25 KB buffers and two incast senders
    of about 150 KB each that fire at the start of every transfer.  A
    fresh fabric is built per transfer.  ``NetworkChannel.fcts`` records the deadline
    instead of the completion time, so the FCT is taken from the
    receiver's delivery callback instead.

    As in fig3-trim, the seed draws the congestion: the RHT rotations and
    the incast burst size, drawn afresh for every transfer from
    ``INCAST_BYTES``.  The dataset, initial weights and batch order are
    fixed, so the loss after two epochs moves by a few per cent across
    seeds, not by a factor of four.  The incast starts with the transfer,
    as in the tests: a start offset of even 0.1 us doubles the trimmed
    share.
    """

    name = "ddp-fabric"
    epochs = 2
    data_seed, model_seed, loader_seed = 0, 1, 0
    lr = 0.02
    #: Range of each incast sender's burst, around the tests' 150 KB.
    INCAST_BYTES = (140_000, 160_000)

    def imports(self) -> None:
        import repro.collectives  # noqa: F401
        import repro.core  # noqa: F401
        import repro.net  # noqa: F401
        import repro.nn  # noqa: F401
        import repro.packet  # noqa: F401
        import repro.train  # noqa: F401

    def data(self) -> None:
        from repro.nn import make_dataset

        self.train_set, self.test_set = make_dataset(
            num_classes=10,
            train_per_class=32,
            test_per_class=8,
            image_size=8,
            noise=1.0,
            seed=self.data_seed,
        )

    def _fabric(self):
        """One congested dumbbell, with the incast armed at t=0."""
        from repro.net import IncastBurst, dumbbell
        from repro.packet import SingleLevelTrim

        self._harvest()
        net = dumbbell(
            pairs=3,
            edge_rate_bps=10e9,
            bottleneck_rate_bps=10e9,
            trim_policy=SingleLevelTrim(),
            buffer_bytes=25_000,
        )
        burst = IncastBurst(
            net.sim,
            senders=[net.hosts["tx1"], net.hosts["tx2"]],
            dst="rx1",
            burst_bytes=int(self._burst_rng.integers(*self.INCAST_BYTES)),
        )
        burst.fire(at=0.0)
        self._last_net = net
        return net

    def _harvest(self) -> None:
        net, self._last_net = self._last_net, None
        if net is not None and self.rec.trace:
            for key, value in net.total_switch_stats().items():
                if key in ("forwarded", "trimmed", "dropped"):
                    self.rec.count(f"net.{key}", value)

    def build(self) -> None:
        import numpy as np

        import repro.train.network_channel as network_channel
        from repro.collectives import AllReduceHook
        from repro.core import RHTCodec
        from repro.nn import MLP
        from repro.train import DDPTrainer, NetworkChannel, TrainConfig

        self._burst_rng = np.random.default_rng(self.seed)
        self._last_net = None
        model = MLP(192, [256], 10, seed=self.model_seed)
        codec = RHTCodec(root_seed=self.seed + 3, row_size=1024)
        factory = self._fabric
        if self.rec.trace:
            factory = self.rec.traced(factory, "net.build")
        self.channel = NetworkChannel(
            factory, codec, "tx0", "rx0", degraded_step=True
        )
        self.wrap_channel(self.channel)
        self._wrap_receiver()
        install_packet_path(self.rec, network_channel)
        self.trainer = DDPTrainer(
            model,
            self.train_set,
            self.test_set,
            world_size=2,
            hook=AllReduceHook(self.channel),
            config=TrainConfig(
                epochs=self.epochs,
                batch_size=8,
                lr=self.lr,
                seed=self.loader_seed,
                augment=False,
            ),
        )

    def _wrap_receiver(self) -> None:
        import repro.train.network_channel as network_channel

        receiver_cls = network_channel.TrimmingReceiver
        fcts = self.fcts_s

        def receiver(host, flow_id, on_message=None, **kwargs):
            start = host.sim.now

            def delivered(packets):
                fcts.append(host.sim.now - start)
                on_message(packets)

            return receiver_cls(host, flow_id=flow_id, on_message=delivered, **kwargs)

        network_channel.TrimmingReceiver = receiver

    def run(self) -> None:
        self.trainer.train()
        self._harvest()

    def result(self) -> Dict[str, float]:
        out = self.trainer_outputs(self.trainer)
        stats = self.channel.stats
        out.update(self.transfer_totals(stats))
        self.check(self.failed == 0, f"{self.failed} of {stats.messages} transfers failed")
        self.check(
            stats.packets_trimmed > 0, "no gradient packet was trimmed on the fabric"
        )
        self.check(
            out["grad_nmse"] < FABRIC_NMSE_BOUND,
            f"grad_nmse {out['grad_nmse']:.4f} >= {FABRIC_NMSE_BOUND}",
        )
        self.check(self.rec.counts.get("net.events", 0) > 0, "no simulator events")
        return out


def cluster_scenario(seed: int) -> Dict:
    """The benchmark's cluster scenario for one seed, as plain data.

    ``ClusterDriver`` derives each job's data, weights and codec seeds from
    ``seed + seed_offset``.  Offsets of ``index - seed`` pin them to the
    job index, so the seed draws only the congestion: tenant on/off
    cycles and traffic.  With the jobs' data drawn from the seed as well,
    the final loss moved by 26 % across ten seeds (IQR over median);
    pinned, by 3 %.  At seed 0 the offsets equal the driver's defaults.
    """
    scenario = json.loads(SCENARIO.read_text())
    for index, job in enumerate(scenario["jobs"]):
        job["seed_offset"] = index - seed
    return scenario


def write_cluster_scenario(seed: int, out_dir: Path) -> Path:
    """Write the seed's scenario where ``repro-cluster run`` can read it."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"cluster-contended-seed{seed}.json"
    path.write_text(json.dumps(cluster_scenario(seed), indent=2, sort_keys=True) + "\n")
    return path


class ClusterContended(Workload):
    """ClusterDriver on the benchmark's own contended k=4 fat-tree scenario.

    ``cluster_contended.json`` routes statically (``"ecmp": false``).
    With per-flow ECMP the run seed is also the ECMP salt, which decides
    for the whole run whether both elephants share one aggregation
    uplink into pod 0; ``grad_nmse`` then moved by 40 % across ten
    seeds, against 6 to 12 % with static routing.
    """

    name = "cluster-contended"

    def imports(self) -> None:
        import repro.cluster  # noqa: F401

    def data(self) -> None:
        from repro.cluster import ClusterScenario

        # Job datasets are generated inside the driver's constructor.
        self.scenario = ClusterScenario.from_dict(cluster_scenario(self.seed))

    def build(self) -> None:
        import repro.cluster.driver as cluster_driver
        from repro.cluster import ClusterDriver

        rec = self.rec
        if rec.trace:
            import repro.nn.data as nn_data

            rec.wrap(nn_data, "make_dataset", "setup.data")
            rec.wrap(ClusterDriver, "build_network", "net.build", static=True)
            rec.wrap(ClusterDriver, "submit", "wait")
        self._track_transfers()
        install_packet_path(rec, cluster_driver)
        self.driver = ClusterDriver(self.scenario, seed=self.seed)
        for runtime in self.driver.runtimes:
            self._wrap_encode(runtime.hook.codec)

    def _track_transfers(self) -> None:
        """Pair each delivered gradient with the one sent, by flow id."""
        import repro.cluster.driver as cluster_driver

        local = threading.local()
        sent: Dict[int, object] = {}
        packetize = cluster_driver.packetize
        decode_packets = cluster_driver.decode_packets

        def tracked_packetize(enc, *args, **kwargs):
            packets = packetize(enc, *args, **kwargs)
            sent[kwargs["flow_id"]] = local.flat
            return packets

        def tracked_decode(packets, *args, **kwargs):
            out = decode_packets(packets, *args, **kwargs)
            self.record_transfer(sent.pop(packets[0].flow_id), out)
            return out

        cluster_driver.packetize = tracked_packetize
        cluster_driver.decode_packets = tracked_decode
        self._local = local

    def _wrap_encode(self, codec) -> None:
        encode = codec.encode
        local = self._local

        def remembered(flat, **kwargs):
            local.flat = flat
            return encode(flat, **kwargs)

        codec.encode = remembered

    def run(self) -> None:
        self.report = self.driver.run()

    def result(self) -> Dict[str, float]:
        report = self.report
        self.report_text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        jobs = report["jobs"]
        losses = [
            rt.trainer.history.records[-1].train_loss for rt in self.driver.runtimes
        ]
        self.check(
            all(not j["diverged"] and j["epochs"] > 0 for j in jobs.values()),
            "a job diverged or trained no epoch",
        )
        self.check(all(math.isfinite(x) for x in losses), f"loss not finite: {losses}")
        for name, job in jobs.items():
            self.check(job["packets_trimmed"] > 0, f"{name}: no packet trimmed")
        tenant_drops = sum(
            report["attribution"].get(t, {}).get("drop", 0) for t in report["tenants"]
        )
        self.check(tenant_drops > 0, "tenant traffic saw no drops")
        self.attempted = sum(j["rounds"] * j["workers"] for j in jobs.values())
        self.failed = sum(j["rounds_surrendered"] for j in jobs.values())
        self.failed += self.bad_transfers
        if self.rec.trace:
            for key in ("forwarded", "trimmed", "dropped"):
                self.rec.count(f"net.{key}", report["fabric"][key])
        return {
            "final_loss": _mean(losses),
            "final_top1": _mean([j["final_top1"] for j in jobs.values()]),
            "grad_nmse": _mean(self.nmse),
            "fct_ms_mean": 1e3 * _mean([j["mean_fct_s"] for j in jobs.values()]),
        }


WORKLOADS = {w.name: w for w in (Fig3Trim, DDPFabric, ClusterContended)}
