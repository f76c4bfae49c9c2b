// CLEAN fixture (rule: session-shim): core::run_session is the one entry
// point, look-alike names do not match, and a comment or string naming
// StreamingSession or run_lossy() is not code.
namespace streamcast::core {
struct SessionConfig {};
struct RunResult {};
RunResult run_session(const SessionConfig&) { return {}; }
}  // namespace streamcast::core

namespace fixture {

using streamcast::core::RunResult;
using streamcast::core::SessionConfig;

struct Schedule {};
Schedule run_nack(int) { return {}; }
Schedule run_lossy_cells(int) { return {}; }
int MyStreamingSessionCount = 0;

RunResult one(const SessionConfig& cfg) {
  const char* label = "StreamingSession(cfg).run_lossy()";
  (void)label;
  (void)run_nack(1);
  (void)run_lossy_cells(2);
  return streamcast::core::run_session(cfg);
}

}  // namespace fixture
