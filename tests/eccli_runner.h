// Drives the real eccli binary, for tests that pin its exit codes end
// to end. The build passes the binary's path as DIALGA_ECCLI.
#pragma once

#include <sys/wait.h>

#include <cstdio>
#include <string>

/// Run eccli with `args` through the shell; returns its exit status
/// (-1 when it did not exit normally) and appends the combined stdout
/// and stderr to `*out`.
inline int RunEccli(const std::string& args, std::string* out) {
  const std::string cmd = std::string(DIALGA_ECCLI) + " " + args + " 2>&1";
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return -1;
  char buf[256];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) *out += buf;
  const int status = ::pclose(pipe);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}
