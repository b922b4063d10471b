// End-to-end tests of run_experiment_cli: input validation produces
// one-line diagnostics with non-zero exit codes, and the checkpoint/resume
// flags work through the real binary. The binary path is injected by CMake
// as ECDRA_CLI_PATH.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

namespace {

struct CliResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

CliResult RunCli(const std::string& args) {
  const std::string command = std::string(ECDRA_CLI_PATH) + " " + args +
                              " 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << command;
  CliResult result;
  if (pipe == nullptr) return result;
  char buffer[4096];
  while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    result.output += buffer;
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "ecdra_cli_" + name + ".jsonl";
}

TEST(Cli, UnknownHeuristicListsValidChoices) {
  const CliResult result = RunCli("--heuristic BOGUS");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("unknown heuristic 'BOGUS'"),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("SQ"), std::string::npos);
  EXPECT_NE(result.output.find("Random"), std::string::npos);
}

TEST(Cli, UnknownVariantListsValidChoices) {
  const CliResult result = RunCli("--variant=bogus");
  EXPECT_EQ(result.exit_code, 2);
  // The registry's diagnostic names the bad filter and the registered keys;
  // the CLI appends the composite syntax.
  EXPECT_NE(result.output.find("unknown filter 'bogus'"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("en"), std::string::npos);
  EXPECT_NE(result.output.find("rob"), std::string::npos);
  EXPECT_NE(result.output.find("en+rob"), std::string::npos);
}

TEST(Cli, MalformedNumbersAreRejected) {
  EXPECT_EQ(RunCli("--trials 10x").exit_code, 2);
  EXPECT_EQ(RunCli("--trials -3").exit_code, 2);
  EXPECT_EQ(RunCli("--budget-scale nan.3").exit_code, 2);
  EXPECT_EQ(RunCli("--trial-timeout -1").exit_code, 2);
  const CliResult result = RunCli("--seed 12junk");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("--seed"), std::string::npos) << result.output;
}

TEST(Cli, MissingValueAndUnknownFlagAreRejected) {
  EXPECT_EQ(RunCli("--trials").exit_code, 2);
  const CliResult result = RunCli("--no-such-flag");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("unknown flag"), std::string::npos)
      << result.output;
}

TEST(Cli, ResumeRequiresCheckpoint) {
  const CliResult result = RunCli("--resume");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("--resume requires --checkpoint"),
            std::string::npos)
      << result.output;
}

TEST(Cli, UnknownValidateModeIsRejected) {
  const CliResult result = RunCli("--validate=wat");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("valid: off, cheap, deep"), std::string::npos)
      << result.output;
}

TEST(Cli, CheckpointThenResumeServesTrialsFromTheFile) {
  const std::string path = TempPath("resume_smoke");
  std::remove(path.c_str());

  const CliResult first = RunCli(
      "--trials 2 --heuristic SQ --variant en --checkpoint " + path);
  ASSERT_EQ(first.exit_code, 0) << first.output;
  EXPECT_NE(first.output.find("checkpoint written to"), std::string::npos);

  const CliResult second = RunCli(
      "--trials 2 --heuristic SQ --variant en --resume --checkpoint " + path);
  ASSERT_EQ(second.exit_code, 0) << second.output;
  EXPECT_NE(second.output.find("2 resumed"), std::string::npos)
      << second.output;

  // A mismatched configuration must refuse to resume.
  const CliResult mismatched = RunCli(
      "--trials 2 --heuristic SQ --variant en --seed 99 --resume "
      "--checkpoint " + path);
  EXPECT_EQ(mismatched.exit_code, 2);
  EXPECT_NE(mismatched.output.find("different run"), std::string::npos)
      << mismatched.output;

  std::remove(path.c_str());
}

TEST(Cli, ResumeRefusesAStoreWrittenUnderAnotherGangPlacement) {
  const std::string path = TempPath("gang_resume");
  std::remove(path.c_str());
  const std::string run =
      "--jobs --job-widths 1@0.5,2@0.5 --trials 2 --heuristic SQ "
      "--variant en --checkpoint " + path;

  const CliResult serial = RunCli(run + " --gang-policy serial");
  ASSERT_EQ(serial.exit_code, 0) << serial.output;
  // Serial's trials must not be served as pack's.
  const CliResult pack = RunCli(run + " --gang-policy pack --resume");
  EXPECT_EQ(pack.exit_code, 2) << pack.output;
  EXPECT_NE(pack.output.find("different run"), std::string::npos)
      << pack.output;

  std::remove(path.c_str());
}

TEST(Cli, FlagsAndSpecFilesApplyTheSameNumericChecks) {
  // Non-finite numbers would print as unparseable "null" spec lines.
  CliResult result = RunCli("--rho-thresh nan --print-spec");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("--rho-thresh: 'nan' is not a finite number"),
            std::string::npos)
      << result.output;
  result = RunCli("--budget-scale inf --print-spec");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("--budget-scale"), std::string::npos)
      << result.output;

  // A range the flag refuses is refused in a spec file too, naming the line.
  result = RunCli("--fault-mtbf -5 --print-spec");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("--fault-mtbf: '-5' must be >= 0"),
            std::string::npos)
      << result.output;
  const std::string spec_path = testing::TempDir() + "ecdra_cli_range.spec";
  {
    std::ofstream spec(spec_path);
    spec << "ecdra-scenario v1\nrun.fault.mtbf = -5\n";
  }
  result = RunCli("--spec " + spec_path + " --trials 1");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("'-5' must be >= 0 in line "
                               "'run.fault.mtbf = -5'"),
            std::string::npos)
      << result.output;
  std::remove(spec_path.c_str());
}

}  // namespace
