#include "core/prevention.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/check.h"
#include "common/logging.h"

namespace prepare {

PreventionActuator::PreventionActuator(Hypervisor* hypervisor,
                                       Cluster* cluster,
                                       const MetricStore* store,
                                       EventLog* log,
                                       const std::vector<Vm*>& vms,
                                       PreventionConfig config,
                                       obs::MetricsRegistry* metrics,
                                       obs::SpanTracer* tracer,
                                       obs::FlightRecorder* recorder)
    : hypervisor_(hypervisor),
      cluster_(cluster),
      store_(store),
      log_(log),
      config_(config),
      tracer_(tracer),
      recorder_(recorder),
      actions_counter_(obs::counter(metrics, "prevention.actions_total")),
      validations_failed_counter_(
          obs::counter(metrics, "prevention.validations_failed_total")),
      reclaims_counter_(obs::counter(metrics, "prevention.reclaims_total")),
      migrations_skipped_counter_(
          obs::counter(metrics, "prevention.migrations_skipped_total")) {
  PREPARE_CHECK(hypervisor != nullptr);
  PREPARE_CHECK(cluster != nullptr);
  PREPARE_CHECK(store != nullptr);
  PREPARE_CHECK(log != nullptr);
  const double never = -std::numeric_limits<double>::infinity();
  for (Vm* vm : vms)
    vms_.push_back(
        {vm, vm->cpu_alloc(), vm->mem_alloc(), std::nullopt, never, never});
}

PreventionActuator::MetricKind PreventionActuator::kind_of(Attribute a) {
  switch (a) {
    case Attribute::kCpuUtil:
    case Attribute::kCpuResidual:
    case Attribute::kLoad1:
    case Attribute::kLoad5:
    case Attribute::kRunQueue:
    case Attribute::kCtxSwitches:
      return MetricKind::kCpu;
    case Attribute::kFreeMem:
    case Attribute::kMemUtil:
    case Attribute::kPageFaults:
      return MetricKind::kMemory;
    default:
      return MetricKind::kOther;
  }
}

double PreventionActuator::lookback_mean(const std::string& vm, Attribute a,
                                         double now) const {
  const MetricStore::History* history = store_->history(vm);
  PREPARE_CHECK_MSG(history != nullptr, "unknown VM: " + vm);
  return history->mean_between(a, now - config_.lookback_s, now)
      .value_or(0.0);
}

bool PreventionActuator::try_scale(Vm* vm, MetricKind kind) {
  Host* host = cluster_->host_of(*vm);
  PREPARE_CHECK(host != nullptr);
  if (kind == MetricKind::kCpu) {
    const double desired = vm->cpu_alloc() * config_.cpu_scale_factor;
    const double target =
        std::min(desired, vm->cpu_alloc() + host->cpu_headroom());
    if (target - vm->cpu_alloc() < config_.min_cpu_step) return false;
    return hypervisor_->scale_cpu(vm, target);
  }
  if (kind == MetricKind::kMemory) {
    const double desired = vm->mem_alloc() * config_.mem_scale_factor;
    const double target =
        std::min(desired, vm->mem_alloc() + host->mem_headroom());
    if (target - vm->mem_alloc() < config_.min_mem_step_mb) return false;
    return hypervisor_->scale_memory(vm, target);
  }
  return false;
}

bool PreventionActuator::try_migrate(ManagedVm& m, double now) {
  if (now - m.last_migration_time < config_.migration_cooldown_s)
    return false;
  Vm* vm = m.vm;
  // Land with generous headroom on BOTH resources: the paper relocates
  // the faulty VM "to a host with desired resources" (matching the VM's
  // demand pattern, PAC [15]) — a second migration is far more expensive
  // than landing big, and the diagnosis may have ranked a symptom metric
  // (saturated CPU) above the root resource (leaking memory).
  const double cpu_after = vm->cpu_alloc() * config_.migration_cpu_factor;
  const double mem_after = vm->mem_alloc() * config_.migration_mem_factor;
  Host* current = cluster_->host_of(*vm);
  Host* target =
      cluster_->find_best_target_host(cpu_after, mem_after, current);
  if (target == nullptr) {
    log_->record(now, EventKind::kInfo, vm->name(),
                 "migration skipped: no host with desired resources");
    obs::inc(migrations_skipped_counter_);
    PREPARE_WARN("prevention")
        << "migration of " << vm->name() << " at t=" << now
        << " skipped: no host fits cpu=" << cpu_after
        << " mem=" << mem_after;
    return false;
  }
  if (!hypervisor_->migrate(vm, target, cpu_after, mem_after)) return false;
  m.last_migration_time = now;
  return true;
}

bool PreventionActuator::probe_can_scale(const Vm& vm, MetricKind kind) const {
  const Host* host = cluster_->host_of(vm);
  if (host == nullptr) return false;
  if (kind == MetricKind::kCpu) {
    const double desired = vm.cpu_alloc() * config_.cpu_scale_factor;
    const double target =
        std::min(desired, vm.cpu_alloc() + host->cpu_headroom());
    const double delta = target - vm.cpu_alloc();
    if (delta < config_.min_cpu_step) return false;
    return host->can_grow(vm, delta, 0.0);
  }
  if (kind == MetricKind::kMemory) {
    const double desired = vm.mem_alloc() * config_.mem_scale_factor;
    const double target =
        std::min(desired, vm.mem_alloc() + host->mem_headroom());
    const double delta = target - vm.mem_alloc();
    if (delta < config_.min_mem_step_mb) return false;
    return host->can_grow(vm, 0.0, delta);
  }
  return false;
}

bool PreventionActuator::probe_can_migrate(const ManagedVm& m,
                                           double now) const {
  const Vm& vm = *m.vm;
  if (vm.migrating()) return false;
  if (now - m.last_migration_time < config_.migration_cooldown_s)
    return false;
  const double cpu_after = vm.cpu_alloc() * config_.migration_cpu_factor;
  const double mem_after = vm.mem_alloc() * config_.migration_mem_factor;
  const Host* current = cluster_->host_of(vm);
  return cluster_->find_best_target_host(cpu_after, mem_after, current) !=
         nullptr;
}

void PreventionActuator::record_attempt(const ManagedVm& m, Attribute a,
                                        MetricKind kind, double now,
                                        int phase, bool scale_known,
                                        bool scale_ok, bool migrate_known,
                                        bool migrate_ok, int applied) {
  if (recorder_ == nullptr) return;
  obs::PreventionEvidence ev;
  ev.t = now;
  ev.phase = phase;
  ev.attribute = static_cast<std::size_t>(a);
  ev.metric_kind = static_cast<int>(kind);
  ev.scale_possible = scale_known ? scale_ok : probe_can_scale(*m.vm, kind);
  ev.migrate_possible = migrate_known ? migrate_ok : probe_can_migrate(m, now);
  ev.applied = applied;
  recorder_->record_prevention(m.vm->name(), ev);
}

bool PreventionActuator::apply_action(ManagedVm& m, Attribute a, double now,
                                      int phase) {
  const MetricKind kind = kind_of(a);
  // Track which feasibility checks the mode actually consulted and how
  // they came out; the recorder evidence reuses the genuine outcomes so
  // offline replay re-derives the exact same decision.
  int applied = 0;
  bool scale_ok = false, migrate_ok = false;
  bool scale_known = false, migrate_known = false;
  switch (config_.mode) {
    case PreventionMode::kScalingOnly:
      if (kind != MetricKind::kOther) {
        scale_ok = try_scale(m.vm, kind);
        scale_known = true;
        if (scale_ok) applied = 1;
      }
      break;
    case PreventionMode::kMigrationOnly:
      migrate_ok = try_migrate(m, now);
      migrate_known = true;
      if (migrate_ok) {
        applied = 2;
      } else if (kind != MetricKind::kOther) {
        // Migration unavailable (cooldown, no target host): scaling on
        // the current host is the only remaining remedy.
        scale_ok = try_scale(m.vm, kind);
        scale_known = true;
        if (scale_ok) applied = 1;
      }
      break;
    case PreventionMode::kScalingThenMigration:
      if (kind != MetricKind::kOther) {
        scale_ok = try_scale(m.vm, kind);
        scale_known = true;
      }
      if (scale_ok) {
        applied = 1;
      } else {
        migrate_ok = try_migrate(m, now);
        migrate_known = true;
        if (migrate_ok) applied = 2;
      }
      break;
  }
  record_attempt(m, a, kind, now, phase, scale_known, scale_ok,
                 migrate_known, migrate_ok, applied);
  return applied != 0;
}

bool PreventionActuator::actuate(const Diagnosis::FaultyVm& faulty,
                                 double now) {
  if (validation_open(faulty.vm)) return false;
  ManagedVm& m = vms_[faulty.vm];
  if (m.vm->migrating()) return false;
  const std::string& name = m.vm->name();

  for (std::size_t i = 0; i < faulty.ranked.size(); ++i) {
    const Attribute a = faulty.ranked[i];
    if (!apply_action(m, a, now)) continue;
    ++actions_fired_;
    obs::inc(actions_counter_);
    std::ostringstream detail;
    detail << "acted on " << attribute_name(a) << " (rank " << i << ")";
    log_->record(now, EventKind::kPrevention, name, detail.str());
    if (tracer_ != nullptr)
      tracer_->prevention_issued(name, now, detail.str());
    PendingValidation pv;
    pv.action_time = now;
    pv.acted = a;
    pv.ranked = faulty.ranked;
    pv.next_index = i + 1;
    pv.lookback_mean = lookback_mean(name, a, now);
    // Also act on the next ranked metric of the *other* resource kind:
    // a saturating CPU is often the symptom of a memory root cause (or
    // vice versa), and a second scaling is far cheaper than a
    // failed-validation round trip. Applies in migration mode too — the
    // companion is always a scaling, which is harmless alongside a
    // migration (and essential when the migration had to fall back to
    // local scaling).
    if (config_.companion_scaling) {
      const MetricKind primary = kind_of(a);
      for (std::size_t j = i + 1; j < faulty.ranked.size(); ++j) {
        const MetricKind other = kind_of(faulty.ranked[j]);
        if (other == MetricKind::kOther || other == primary) continue;
        const bool companion_ok = try_scale(m.vm, other);
        record_attempt(m, faulty.ranked[j], other, now, /*phase=*/1,
                       /*scale_known=*/true, companion_ok,
                       /*migrate_known=*/false, false,
                       companion_ok ? 1 : 0);
        if (companion_ok) {
          ++actions_fired_;
          obs::inc(actions_counter_);
          log_->record(now, EventKind::kPrevention, name,
                       "companion action on " +
                           attribute_name(faulty.ranked[j]));
          if (tracer_ != nullptr)
            tracer_->prevention_issued(
                name, now,
                "companion action on " + attribute_name(faulty.ranked[j]));
          pv.next_index = j + 1;
        }
        break;
      }
    }
    m.pending = std::move(pv);
    m.last_action_time = now;
    return true;
  }
  log_->record(now, EventKind::kInfo, name,
               "no applicable prevention action");
  PREPARE_WARN("prevention")
      << "no applicable action for " << name << " at t=" << now
      << " (every ranked metric exhausted)";
  if (tracer_ != nullptr)
    tracer_->escalated(name, now, "no applicable prevention action");
  return false;
}

void PreventionActuator::on_sample(double now,
                                   const std::vector<bool>& unhealthy) {
  PREPARE_DCHECK(unhealthy.size() == vms_.size());
  maybe_reclaim(now, unhealthy);
  for (std::size_t i = 0; i < vms_.size(); ++i) {
    ManagedVm& m = vms_[i];
    if (!m.pending) continue;
    const std::string& vm_name = m.vm->name();
    PendingValidation& pv = *m.pending;
    if (now < pv.action_time + config_.validation_delay_s) continue;
    if (!config_.validation_enabled) {
      // Ablation mode: the record simply expires, successful or not.
      m.pending.reset();
      continue;
    }
    if (!unhealthy[i]) {
      log_->record(now, EventKind::kValidation, vm_name,
                   "prevention effective: alerts cleared");
      if (tracer_ != nullptr) tracer_->validated(vm_name, now);
      m.pending.reset();
      continue;
    }
    // Still unhealthy: did the acted metric respond at all?
    const MetricStore::History* history = store_->history(vm_name);
    PREPARE_CHECK_MSG(history != nullptr, "unknown VM: " + vm_name);
    const auto ahead = history->mean_between(pv.acted, pv.action_time, now);
    const double before = pv.lookback_mean;
    const double after = ahead.value_or(before);
    const double denom = std::max(std::abs(before), 1e-6);
    const bool responded =
        std::abs(after - before) / denom >= config_.min_relative_change;
    ++validations_failed_;
    obs::inc(validations_failed_counter_);
    PREPARE_INFO("prevention")
        << vm_name << " still unhealthy at t=" << now << " after acting on "
        << attribute_name(pv.acted) << "; trying next ranked metric";
    std::ostringstream detail;
    detail << "still unhealthy after acting on "
           << attribute_name(pv.acted)
           << (responded ? " (metric responded)" : " (no metric response)");
    log_->record(now, EventKind::kValidation, vm_name, detail.str());

    // Try the next ranked metric, skipping non-actionable ones.
    bool reacted = false;
    while (pv.next_index < pv.ranked.size()) {
      const Attribute next = pv.ranked[pv.next_index++];
      if (!m.vm->migrating() && apply_action(m, next, now, /*phase=*/2)) {
        ++actions_fired_;
        obs::inc(actions_counter_);
        log_->record(now, EventKind::kPrevention, vm_name,
                     "fallback action on " + attribute_name(next));
        if (tracer_ != nullptr)
          tracer_->prevention_issued(
              vm_name, now, "fallback action on " + attribute_name(next));
        pv.action_time = now;
        pv.acted = next;
        pv.lookback_mean = lookback_mean(vm_name, next, now);
        m.last_action_time = now;
        reacted = true;
        break;
      }
    }
    if (!reacted) {
      // Ranking exhausted: close the record so a later confirmed alert
      // can retry from the top (e.g. scale further as a leak keeps
      // growing).
      if (tracer_ != nullptr)
        tracer_->escalated(vm_name, now, "ranking exhausted");
      m.pending.reset();
    }
  }
}

bool PreventionActuator::validation_open(std::size_t vm) const {
  PREPARE_DCHECK(vm < vms_.size());
  return vms_[vm].pending.has_value();
}

void PreventionActuator::maybe_reclaim(double now,
                                       const std::vector<bool>& unhealthy) {
  if (!config_.reclaim_enabled) return;
  for (std::size_t i = 0; i < vms_.size(); ++i) {
    ManagedVm& m = vms_[i];
    if (unhealthy[i] || m.pending) continue;
    if (now - m.last_action_time < config_.reclaim_idle_s) continue;
    Vm* vm = m.vm;
    const std::string& vm_name = vm->name();
    if (vm->migrating()) continue;
    const MetricStore::History* history = store_->history(vm_name);
    if (history == nullptr) continue;

    const double window_start = now - config_.reclaim_idle_s;
    // CPU: shrink toward baseline when sustained utilization is low.
    if (vm->cpu_alloc() > m.baseline_cpu * 1.01) {
      const auto util =
          history->mean_between(Attribute::kCpuUtil, window_start, now);
      if (util && *util < config_.reclaim_cpu_util_pct) {
        const double target =
            std::max(m.baseline_cpu, vm->cpu_alloc() * config_.reclaim_factor);
        if (hypervisor_->scale_cpu(vm, target)) {
          log_->record(now, EventKind::kInfo, vm_name,
                       "elastic reclaim: cpu scaled down");
          obs::inc(reclaims_counter_);
          m.last_action_time = now;
        }
      }
    }
    // Memory: shrink toward baseline when sustained usage is low.
    if (vm->mem_alloc() > m.baseline_mem * 1.01) {
      const auto util =
          history->mean_between(Attribute::kMemUtil, window_start, now);
      if (util && *util < config_.reclaim_mem_util_pct) {
        const double target =
            std::max(m.baseline_mem, vm->mem_alloc() * config_.reclaim_factor);
        if (hypervisor_->scale_memory(vm, target)) {
          log_->record(now, EventKind::kInfo, vm_name,
                       "elastic reclaim: memory scaled down");
          obs::inc(reclaims_counter_);
          m.last_action_time = now;
        }
      }
    }
  }
}

}  // namespace prepare
