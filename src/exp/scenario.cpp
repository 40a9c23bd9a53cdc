#include "exp/scenario.hpp"

#include <algorithm>
#include <memory>
#include <utility>

namespace amoeba::exp {

workload::DiurnalTraceConfig diurnal_for(
    const workload::FunctionProfile& profile, double period_s, double phase) {
  workload::DiurnalTraceConfig cfg;
  cfg.period_s = period_s;
  cfg.peak_qps = profile.peak_load_qps;
  cfg.trough_fraction = 0.25;
  cfg.peak_width = 0.055;
  cfg.phase = phase;
  cfg.noise_cv = 0.05;
  cfg.noise_interval_s = std::max(10.0, period_s / 200.0);
  return cfg;
}

workload::QueryCompletionFn RunRecorder::observer() {
  return [this](const workload::QueryRecord& rec) {
    if (rec.arrival < warmup_s) return;
    latencies.add(rec.latency());
    if (keep_records) records.push_back(rec);
  };
}

const char* to_string(DeploySystem s) noexcept {
  switch (s) {
    case DeploySystem::kAmoeba: return "Amoeba";
    case DeploySystem::kAmoebaNoM: return "Amoeba-NoM";
    case DeploySystem::kAmoebaNoP: return "Amoeba-NoP";
    case DeploySystem::kNameko: return "Nameko";
    case DeploySystem::kOpenWhisk: return "OpenWhisk";
  }
  return "?";
}

std::vector<workload::FunctionProfile> background_suite(
    double peak_fraction) {
  return {workload::as_background(workload::make_float(), peak_fraction),
          workload::as_background(workload::make_dd(), peak_fraction),
          workload::as_background(workload::make_cloud_stor(), peak_fraction)};
}

core::AmoebaConfig default_amoeba_config(DeploySystem system,
                                         double timeline_period_s) {
  core::AmoebaConfig cfg;
  cfg.controller.qos_percentile = 0.95;
  // The margins absorb what the discriminant cannot see: the load keeps
  // rising through the hysteresis window and the 30 s VM boot, so the
  // switch back to IaaS must fire well before λ_max is reached.
  cfg.controller.to_serverless_margin = 0.60;
  cfg.controller.to_iaas_margin = 0.80;
  cfg.controller.hysteresis_ticks = 2;
  cfg.engine.mirror_fraction = 0.08;
  cfg.engine.prewarm.headroom = 1.25;
  cfg.monitor.sample_period_s = 5.0;
  cfg.estimator.min_samples = 24;
  // Cover 2 hysteresis ticks + the 30 s VM boot.
  cfg.load_anticipation_s = 40.0;
  cfg.timeline_period_s = timeline_period_s;
  if (system == DeploySystem::kAmoebaNoM) cfg.estimator.enable_pca = false;
  if (system == DeploySystem::kAmoebaNoP) cfg.engine.enable_prewarm = false;
  return cfg;
}

ManagedRunResult run_managed(const workload::FunctionProfile& foreground,
                             DeploySystem system, const ClusterConfig& cluster,
                             const core::MeterCalibration& calibration,
                             const core::ServiceArtifacts& artifacts,
                             const ManagedRunOptions& opt) {
  Node node(cluster, opt);
  sim::Engine& engine = node.engine();
  serverless::ServerlessPlatform& sp = node.serverless_platform();
  iaas::IaasPlatform& ip = node.iaas_platform();
  sim::FaultInjector* const faults = node.faults();
  const double duration = node.duration_s();
  RunRecorder recorder{opt.warmup_s, opt.keep_records};

  // Background tenants live directly on the shared serverless platform.
  if (opt.with_background) {
    int k = 0;
    for (const auto& bg : background_suite(opt.background_peak_fraction)) {
      sp.register_function(bg);
      node.start_load(node.add_load(
          diurnal_for(bg, opt.period_s, 0.17 * (k + 1)),
          opt.seed ^ (0xb67u + static_cast<unsigned>(k)),
          100 + static_cast<std::uint64_t>(k), [&sp, name = bg.name] {
            sp.submit(name, [](const workload::QueryRecord&) {});
          }));
      ++k;
    }
  }

  // Foreground service under the chosen deployment system.
  ManagedRunResult result;
  result.qos_target_s = foreground.qos_target_s;

  const auto fg_observer = recorder.observer();

  std::unique_ptr<core::AmoebaRuntime> runtime;
  workload::ArrivalFn fg_arrival;
  std::function<void()> nameko_boot;  // must outlive the event loop
  const std::string fg_name = foreground.name;

  switch (system) {
    case DeploySystem::kNameko: {
      ip.register_service(foreground, just_enough_vm(foreground, cluster));
      if (faults) {
        // Injected boot failures: keep rebooting until the VM sticks, and
        // shed arrivals while it is down (a pure-IaaS outage loses queries).
        nameko_boot = [&engine, &ip, &nameko_boot, fg_name] {
          ip.boot(fg_name, [] {}, [&engine, &nameko_boot] {
            engine.schedule_in(1.0, [&nameko_boot] { nameko_boot(); });
          });
        };
        nameko_boot();
        fg_arrival = [&ip, fg_name, fg_observer] {
          if (ip.is_running(fg_name)) ip.submit(fg_name, fg_observer);
        };
      } else {
        ip.boot(fg_name, [] {});
        fg_arrival = [&ip, fg_name, fg_observer] {
          ip.submit(fg_name, fg_observer);
        };
      }
      break;
    }
    case DeploySystem::kOpenWhisk: {
      sp.register_function(foreground);
      fg_arrival = [&sp, fg_name, fg_observer] {
        sp.submit(fg_name, fg_observer);
      };
      break;
    }
    default: {
      core::AmoebaConfig cfg =
          opt.amoeba.has_value()
              ? *opt.amoeba
              : default_amoeba_config(system, opt.timeline_period_s);
      if (!opt.amoeba.has_value()) {
        cfg.timeline_period_s = opt.timeline_period_s;
      }
      if (opt.observer != nullptr) cfg.observer = opt.observer;
      cfg.fault_injector = faults;
      runtime = std::make_unique<core::AmoebaRuntime>(
          engine, sp, ip, calibration, cfg, node.rng().fork(3));
      const auto vm_spec = just_enough_vm(foreground, cluster);
      runtime->add_service(foreground, vm_spec, artifacts,
                           solo_container_ask(vm_spec));
      runtime->start();
      fg_arrival = [rt = runtime.get(), fg_name, fg_observer] {
        rt->submit(fg_name, fg_observer);
      };
      break;
    }
  }

  node.schedule_load_start(node.add_load(diurnal_for(foreground, opt.period_s),
                                         opt.seed ^ 0x51u, 7,
                                         std::move(fg_arrival)));

  node.run();
  if (runtime) runtime->stop();

  result.queries = recorder.latencies.size();
  result.latencies = std::move(recorder.latencies);
  result.records = std::move(recorder.records);

  switch (system) {
    case DeploySystem::kNameko:
      result.usage.cpu_core_seconds = ip.rented_core_seconds(fg_name, duration);
      result.usage.memory_mb_seconds =
          ip.rented_memory_mb_seconds(fg_name, duration);
      break;
    case DeploySystem::kOpenWhisk:
      result.usage.cpu_core_seconds = sp.cpu_core_seconds(fg_name);
      result.usage.memory_mb_seconds = sp.memory_mb_seconds(fg_name, duration);
      break;
    default:
      result.usage = runtime->accountant().usage(fg_name, duration);
      result.switches = runtime->switch_events();
      result.switch_aborts = runtime->execution_engine().switch_aborts();
      result.switch_retries = runtime->execution_engine().switch_retries();
      if (runtime->timeline_period() > 0.0) {
        result.timeline = runtime->timeline(fg_name);
      }
      break;
  }
  node.roll_up(result);
  return result;
}

}  // namespace amoeba::exp
