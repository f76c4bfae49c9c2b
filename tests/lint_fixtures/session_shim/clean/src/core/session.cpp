// CLEAN fixture (rule: session-shim): inside src/core/ the forwards are the
// module's own implementation — the rule exempts the module by path.
namespace streamcast::core {
struct SessionConfig {};
struct RunResult {};
RunResult run_session(const SessionConfig&) { return {}; }

class StreamingSession {
 public:
  explicit StreamingSession(SessionConfig config) : config_(config) {}
  RunResult run_lossy() const { return run_session(config_); }
  RunResult run_scale() const { return run_session(config_); }

 private:
  SessionConfig config_;
};
}  // namespace streamcast::core
